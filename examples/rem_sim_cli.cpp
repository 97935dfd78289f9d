// Command-line scenario runner: simulate a route with legacy or REM
// management and optionally dump the signaling event log as CSV — the
// workflow for producing "datasets" from this repo.
//
//   ./examples/rem_sim_cli [--route la|bt|bs] [--speed KMH]
//                          [--duration S] [--seed N] [--manager legacy|rem]
//                          [--events out.csv]
//
// Each number must be one whole finite token (speed >= 0, duration > 0, a
// seed below 2^64). An unknown option or a bad value prints a usage line
// naming it and exits 2 before anything runs.
#include "common/flat_json.hpp"
#include "common/stats.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "phy/bler_model.hpp"
#include "trace/eventlog.hpp"
#include "trace/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
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

constexpr const char* kUsage =
    "usage: rem_sim_cli [--route la|bt|bs] [--speed KMH]\n"
    "                   [--duration S] [--seed N]\n"
    "                   [--manager legacy|rem] [--events out.csv]\n";

/// Prints `why` and the usage line; the caller exits 2.
int usage_error(const std::string& why) {
  std::fprintf(stderr, "rem_sim_cli: %s\n%s", why.c_str(), kUsage);
  return 2;
}

/// `v` as one whole finite number under the flat-JSON number rule, or
/// nothing.
std::optional<double> finite_number(const std::string& v) {
  try {
    const double x = common::flat_json::parse_double(v);
    if (std::isfinite(x)) return x;
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

/// Fills `opt` from the command line. Returns the exit code when the
/// program should stop (0 after --help, 2 on a usage error), nothing when
/// it should run.
std::optional<int> parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    const bool takes_value = arg == "--route" || arg == "--speed" ||
                             arg == "--duration" || arg == "--seed" ||
                             arg == "--manager" || arg == "--events";
    if (!takes_value) return usage_error("unknown option '" + arg + "'");
    if (i + 1 >= argc) return usage_error("'" + arg + "' needs a value");
    const std::string v = argv[++i];
    const auto bad = [&](const char* want) {
      return usage_error(arg + " needs " + want + ", got '" + v + "'");
    };
    if (arg == "--route") {
      if (v == "la")
        opt.route = trace::Route::kLowMobilityLA;
      else if (v == "bt")
        opt.route = trace::Route::kBeijingTaiyuan;
      else if (v == "bs")
        opt.route = trace::Route::kBeijingShanghai;
      else
        return bad("la, bt or bs");
    } else if (arg == "--speed") {
      const auto x = finite_number(v);
      if (!x || *x < 0.0) return bad("a finite speed >= 0 km/h");
      opt.speed_kmh = *x;
    } else if (arg == "--duration") {
      const auto x = finite_number(v);
      if (!x || *x <= 0.0) return bad("a finite duration > 0 s");
      opt.duration_s = *x;
    } else if (arg == "--seed") {
      try {
        opt.seed = common::flat_json::parse_u64(v);
      } catch (const std::invalid_argument&) {
        return bad("an integer seed in [0, 2^64)");
      }
    } else if (arg == "--manager") {
      if (v != "legacy" && v != "rem") return bad("legacy or rem");
      opt.use_rem = v == "rem";
    } else {
      opt.events_path = v;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (const auto code = parse(argc, argv, opt)) return *code;

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
    try {
      trace::write_event_csv_file(stats.events, opt.events_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "rem_sim_cli: %s\n", e.what());
      return 1;
    }
    std::printf("  wrote %zu events to %s\n", stats.events.size(),
                opt.events_path.c_str());
  }
  return 0;
}
