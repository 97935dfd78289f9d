// Table 2: Network reliability in extreme mobility (legacy 4G/5G).
//
// Reproduces the failure-ratio / cause-breakdown / loop-statistics rows of
// the paper's Table 2 across the four speed buckets, using synthetic
// scenarios calibrated to the datasets (see DESIGN.md).
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

int main() {
  struct Bucket {
    const char* label;
    trace::Route route;
    double speed_kmh;
  };
  const Bucket buckets[] = {
      {"0-100 km/h (low mobility)", trace::Route::kLowMobilityLA, 60.0},
      {"100-200 km/h (HSR)", trace::Route::kBeijingShanghai, 150.0},
      {"200-300 km/h (HSR)", trace::Route::kBeijingShanghai, 250.0},
      {"300-350 km/h (HSR)", trace::Route::kBeijingShanghai, 330.0},
  };

  std::printf("Table 2: Network reliability in extreme mobility (legacy)\n");
  std::printf("%-28s %10s %10s %10s %10s %10s %10s %12s %10s %10s\n",
              "Speed bucket", "HO intvl", "fail%", "fdbk%", "missed%",
              "cmd%", "hole%", "loop freq", "HO/loop", "intra%");

  for (const auto& b : buckets) {
    const auto run =
        bench::run_route(trace::make_scenario(b.route, b.speed_kmh, 1500.0),
                         {1, 2, 3}, /*run_rem=*/false,
                         testkit::bench_threads());
    const auto& lg = run.legacy;
    const auto& t = lg.total;
    const double loop_freq =
        t.loop_episodes > 0 ? t.sim_time_s / t.loop_episodes : 0.0;
    const double ho_per_loop =
        t.loop_episodes > 0
            ? static_cast<double>(t.loop_handovers) / t.loop_episodes
            : 0.0;
    const double intra_pct =
        t.conflict_loop_episodes > 0
            ? 100.0 * t.intra_freq_conflict_loops / t.conflict_loop_episodes
            : 0.0;
    std::printf(
        "%-28s %9.1fs %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %11.0fs "
        "%10.1f %9.0f%%\n",
        b.label, lg.handover_interval_s.empty()
                     ? 0.0
                     : lg.handover_interval_s.mean(),
        bench::pct(lg.failure_ratio()),
        bench::pct(lg.cause_ratio(sim::FailureCause::kFeedbackDelayLoss)),
        bench::pct(lg.cause_ratio(sim::FailureCause::kMissedCell)),
        bench::pct(lg.cause_ratio(sim::FailureCause::kHoCommandLoss)),
        bench::pct(lg.cause_ratio(sim::FailureCause::kCoverageHole)),
        loop_freq, ho_per_loop, intra_pct);
  }
  std::printf(
      "\nPaper reference (Table 2): fail%% 4.3 / 5.2 / 10.6 / 12.5 rising "
      "with speed;\nfeedback delay/loss dominates on HSR; loops far more "
      "frequent than low mobility.\n");
  return 0;
}
