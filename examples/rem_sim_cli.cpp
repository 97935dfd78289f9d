// Command-line scenario runner: simulate a route with legacy or REM
// management and optionally dump the signaling event log as CSV — the
// workflow for producing "datasets" from this repo.
//
//   ./examples/rem_sim_cli [--route la|bt|bs] [--speed KMH]
//                          [--duration S] [--seed N] [--manager legacy|rem]
//                          [--events out.csv]
#include "common/stats.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "phy/bler_model.hpp"
#include "trace/eventlog.hpp"
#include "trace/scenario.hpp"

#include <cstdio>
#include <cstring>
#include <string>

using namespace rem;

namespace {

struct CliOptions {
  trace::Route route = trace::Route::kBeijingShanghai;
  double speed_kmh = 300.0;
  double duration_s = 1000.0;
  std::uint64_t seed = 1;
  bool use_rem = false;
  std::string events_path;
};

bool parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--route") {
      const char* v = need_value("--route");
      if (v == nullptr) return false;
      if (std::strcmp(v, "la") == 0)
        opt.route = trace::Route::kLowMobilityLA;
      else if (std::strcmp(v, "bt") == 0)
        opt.route = trace::Route::kBeijingTaiyuan;
      else if (std::strcmp(v, "bs") == 0)
        opt.route = trace::Route::kBeijingShanghai;
      else {
        std::fprintf(stderr, "unknown route '%s' (la|bt|bs)\n", v);
        return false;
      }
    } else if (arg == "--speed") {
      const char* v = need_value("--speed");
      if (v == nullptr) return false;
      opt.speed_kmh = std::atof(v);
    } else if (arg == "--duration") {
      const char* v = need_value("--duration");
      if (v == nullptr) return false;
      opt.duration_s = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--manager") {
      const char* v = need_value("--manager");
      if (v == nullptr) return false;
      opt.use_rem = std::strcmp(v, "rem") == 0;
    } else if (arg == "--events") {
      const char* v = need_value("--events");
      if (v == nullptr) return false;
      opt.events_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: rem_sim_cli [--route la|bt|bs] [--speed KMH]\n"
          "                   [--duration S] [--seed N]\n"
          "                   [--manager legacy|rem] [--events out.csv]\n");
      return false;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse(argc, argv, opt)) return 1;

  auto sc = trace::make_scenario(opt.route, opt.speed_kmh, opt.duration_s);
  sc.sim.record_events = !opt.events_path.empty();
  common::Rng rng(opt.seed);
  const auto world = trace::make_world(sc, rng);

  phy::LogisticBlerModel bler;
  sim::SimStats stats;
  std::string manager_name;
  if (opt.use_rem) {
    core::RemManager mgr(core::RemConfig{}, rng.fork());
    sim::Simulator s(world.env, sc.sim, bler, rng.fork());
    stats = s.run(mgr);
    manager_name = "REM";
  } else {
    core::LegacyManager mgr(world.legacy);
    sim::Simulator s(world.env, sc.sim, bler, rng.fork());
    stats = s.run(mgr);
    manager_name = "Legacy";
  }

  std::printf("%s over %s, %.0f km/h, %.0f s (seed %llu)\n",
              manager_name.c_str(), trace::route_name(opt.route).c_str(),
              opt.speed_kmh, opt.duration_s,
              static_cast<unsigned long long>(opt.seed));
  std::printf("  handovers %d, failures %d (%.2f%%), loops %d\n",
              stats.handovers, stats.failures,
              100.0 * stats.failure_ratio(), stats.loop_episodes);
  std::printf("  mean throughput %.1f Mbps, downtime %.2f%%\n",
              stats.mean_throughput_bps / 1e6,
              100.0 * stats.downtime_fraction);
  for (const auto& [cause, n] : stats.failures_by_cause)
    std::printf("  %-22s %d\n", sim::failure_cause_name(cause).c_str(), n);

  if (!opt.events_path.empty()) {
    trace::write_event_csv_file(stats.events, opt.events_path);
    std::printf("  wrote %zu events to %s\n", stats.events.size(),
                opt.events_path.c_str());
  }
  return 0;
}
