// Ablation study: which of REM's three mechanisms buys what.
//
// DESIGN.md calls out three design choices: (1) OTFS-carried signaling,
// (2) SVD cross-band estimation, (3) the Theorem-2 conflict-free policy.
// This bench disables each one in turn on the Beijing-Shanghai 300 km/h
// scenario and reports failures, conflict loops, feedback delay, and the
// §8 data-plane metrics (mean Shannon throughput, downtime).
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

namespace {

bench::AggregateStats run_variant(const core::RemConfig& rem_cfg,
                                  const std::vector<std::uint64_t>& seeds) {
  bench::AggregateStats agg;
  phy::LogisticBlerModel bler;
  const auto sc =
      trace::make_scenario(trace::Route::kBeijingShanghai, 300.0, 1500.0);
  for (const auto seed : seeds) {
    common::Rng rng(seed);
    const auto world = trace::make_world(sc, rng);
    core::RemManager mgr(rem_cfg, rng.fork());
    sim::Simulator s(world.env, sc.sim, bler, rng.fork());
    // A proactive (negative-offset) REM variant *can* loop; attribute its
    // ping-pongs as conflicts when the uniform offsets violate Theorem 2.
    const bool violates = 2.0 * rem_cfg.a3_offset_db < 0.0;
    agg.add(s.run(mgr, [violates](int, int) { return violates; }));
  }
  return agg;
}

void print_row(const char* name, const bench::AggregateStats& a) {
  std::printf("  %-24s %8.2f%% %11.2f%% %10d %11.0fms %10.1f %9.2f%%\n",
              name, bench::pct(a.failure_ratio()),
              bench::pct(a.failure_ratio_excluding_holes()),
              a.total.conflict_loop_episodes,
              a.feedback_delay_s.empty()
                  ? 0.0
                  : 1e3 * a.feedback_delay_s.mean(),
              a.throughput_bps.empty()
                  ? 0.0
                  : a.throughput_bps.mean() / 1e6,
              a.downtime_fraction.empty()
                  ? 0.0
                  : 100.0 * a.downtime_fraction.mean());
}

}  // namespace

int main() {
  const std::vector<std::uint64_t> seeds = {61, 62, 63};
  std::printf("Ablation: Beijing-Shanghai @ 300 km/h, three REM mechanisms "
              "toggled\n");
  std::printf("  %-24s %9s %12s %10s %12s %10s %10s\n", "variant", "fail%",
              "fail% w/o hole", "conf.loops", "fdbk delay", "thpt Mbps",
              "downtime");

  // Legacy baseline for reference.
  const auto base = bench::run_route(
      trace::make_scenario(trace::Route::kBeijingShanghai, 300.0, 1500.0),
      seeds);
  print_row("Legacy 4G/5G", base.legacy);

  core::RemConfig full;
  print_row("REM (full)", run_variant(full, seeds));

  core::RemConfig no_otfs = full;
  no_otfs.use_otfs_signaling = false;
  print_row("REM - OTFS signaling", run_variant(no_otfs, seeds));

  core::RemConfig no_xband = full;
  no_xband.use_crossband = false;
  print_row("REM - cross-band est.", run_variant(no_xband, seeds));

  core::RemConfig proactive = full;
  proactive.a3_offset_db = -2.0;  // violates Theorem 2 (sum -4 < 0)
  print_row("REM - conflict-free pol.", run_variant(proactive, seeds));

  core::RemConfig capacity = full;
  capacity.capacity_selection = true;
  print_row("REM + capacity select", run_variant(capacity, seeds));

  std::printf(
      "\nExpected shape: dropping OTFS gives back signaling-loss failures; "
      "dropping cross-band\ntriples the feedback delay; dropping the "
      "Theorem-2 offsets floods the run with conflict\nloops. REM's "
      "data-plane benefit (§8) shows as ~1.5x legacy throughput; capacity "
      "selection\nis near-neutral here because the wide corridor layer "
      "already dominates cell choice.\n");
  return 0;
}
