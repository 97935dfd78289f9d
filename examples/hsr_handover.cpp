// High-speed-rail handover demo: ride a synthesized Beijing-Shanghai-style
// route at 300 km/h with legacy 4G/5G management and with REM, and print
// the handover/failure story of each run.
//
//   ./examples/hsr_handover [speed_kmh] [duration_s] [seed]
#include "common/stats.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "phy/bler_model.hpp"
#include "trace/scenario.hpp"

#include <cstdio>
#include <cstdlib>

using namespace rem;

namespace {

void report(const char* name, const sim::SimStats& s) {
  std::printf("\n--- %s ---\n", name);
  std::printf("handovers: %d (%.1fs avg interval), failures: %d "
              "(ratio %.2f%%)\n",
              s.handovers, s.avg_handover_interval_s, s.failures,
              100.0 * s.failure_ratio());
  for (const auto& [cause, n] : s.failures_by_cause)
    std::printf("  %-22s %d\n", sim::failure_cause_name(cause).c_str(), n);
  std::printf("loop episodes: %d (%d handovers in loops)\n",
              s.loop_episodes, s.loop_handovers);
  if (!s.feedback_delays_s.empty()) {
    common::Summary fd;
    fd.add_all(s.feedback_delays_s);
    std::printf("feedback delay: mean %.0f ms, p90 %.0f ms\n",
                1e3 * fd.mean(), 1e3 * fd.percentile(90));
  }
  if (!s.outage_durations_s.empty()) {
    common::Summary od;
    od.add_all(s.outage_durations_s);
    std::printf("outages: %zu, mean %.2f s\n", od.count(), od.mean());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double speed = argc > 1 ? std::atof(argv[1]) : 300.0;
  const double duration = argc > 2 ? std::atof(argv[2]) : 1200.0;
  const std::uint64_t seed = argc > 3
                                 ? static_cast<std::uint64_t>(
                                       std::atoll(argv[3]))
                                 : 7;

  const auto sc =
      trace::make_scenario(trace::Route::kBeijingShanghai, speed, duration);
  common::Rng rng(seed);
  const auto world = trace::make_world(sc, rng);
  const auto& cells = world.env.cells();

  std::printf("route: %.0f km, %zu cells on %d sites, %zu coverage holes, "
              "%.0f km/h for %.0f s\n",
              sc.deployment.route_len_m / 1000.0, cells.size(),
              cells.empty() ? 0 : cells.back().id.base_station + 1,
              world.holes.size(), speed, duration);

  phy::LogisticBlerModel bler;

  core::LegacyManager legacy(world.legacy);
  sim::Simulator s1(world.env, sc.sim, bler, rng.fork());
  report("Legacy 4G/5G", s1.run(legacy));

  core::RemManager remm(core::RemConfig{}, rng.fork());
  sim::Simulator s2(world.env, sc.sim, bler, rng.fork());
  report("REM", s2.run(remm));

  std::printf("\nREM triggers on stable delay-Doppler SNR, sees co-located "
              "cells through cross-band\nestimation, and ships its "
              "signaling over OTFS — so the same route loses far fewer\n"
              "handovers (paper Table 5).\n");
  return 0;
}
