// Table 5: Reduction of failures and policy conflicts (legacy vs REM).
//
// Runs the full simulator with both managers over every route/speed column
// of the paper's Table 5 and prints failure ratios (total, without coverage
// holes, per cause), conflict-loop statistics, and the reduction factor
// epsilon = (legacy - rem) / rem.
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

namespace {

void print_reduction(const char* row, double lg, double rm) {
  const double eps = bench::reduction_factor(lg, rm);
  if (eps < 0.0 && lg > 0.0)
    std::printf("  %-28s %8.2f%% %8.2f%% %10s\n", row, 100.0 * lg,
                100.0 * rm, "inf");
  else
    std::printf("  %-28s %8.2f%% %8.2f%% %9.1fx\n", row, 100.0 * lg,
                100.0 * rm, eps < 0 ? 0.0 : eps);
}

void run_column(const char* label, trace::Route route, double speed_kmh) {
  const auto run = bench::run_route(
      trace::make_scenario(route, speed_kmh, 1500.0), {11, 12, 13});
  const auto& lg = run.legacy;
  const auto& rm = run.rem;
  std::printf("\n%s  (legacy HOs: %d, REM HOs: %d)\n", label,
              lg.total.handovers, rm.total.handovers);
  std::printf("  %-28s %9s %9s %10s\n", "", "Legacy", "REM", "reduction");
  print_reduction("Total failure ratio", lg.failure_ratio(),
                  rm.failure_ratio());
  print_reduction("Failure w/o coverage hole",
                  lg.failure_ratio_excluding_holes(),
                  rm.failure_ratio_excluding_holes());
  print_reduction("Feedback delay/loss",
                  lg.cause_ratio(sim::FailureCause::kFeedbackDelayLoss),
                  rm.cause_ratio(sim::FailureCause::kFeedbackDelayLoss));
  print_reduction("Missed cell",
                  lg.cause_ratio(sim::FailureCause::kMissedCell),
                  rm.cause_ratio(sim::FailureCause::kMissedCell));
  print_reduction("Handover cmd. loss",
                  lg.cause_ratio(sim::FailureCause::kHoCommandLoss),
                  rm.cause_ratio(sim::FailureCause::kHoCommandLoss));
  print_reduction("Coverage holes",
                  lg.cause_ratio(sim::FailureCause::kCoverageHole),
                  rm.cause_ratio(sim::FailureCause::kCoverageHole));

  const auto conflict_share = [](const sim::SimStats& t) {
    return t.handovers > 0 ? static_cast<double>(t.conflict_loop_handovers) /
                                 t.handovers
                           : 0.0;
  };
  print_reduction("Total HO in conflicts", conflict_share(lg.total),
                  conflict_share(rm.total));
  std::printf("  %-28s %9d %9d\n", "Conflict loop episodes",
              lg.total.conflict_loop_episodes,
              rm.total.conflict_loop_episodes);
}

}  // namespace

int main() {
  std::printf(
      "Table 5: Reduction of failures and policy conflicts (LGC vs REM)\n");
  run_column("Low mobility, 0-100 km/h", trace::Route::kLowMobilityLA, 60.0);
  run_column("Beijing-Taiyuan, 200-300 km/h", trace::Route::kBeijingTaiyuan,
             250.0);
  run_column("Beijing-Shanghai, 100-200 km/h",
             trace::Route::kBeijingShanghai, 150.0);
  run_column("Beijing-Shanghai, 200-300 km/h",
             trace::Route::kBeijingShanghai, 250.0);
  run_column("Beijing-Shanghai, 300-350 km/h",
             trace::Route::kBeijingShanghai, 330.0);
  std::printf(
      "\nPaper reference (Table 5): REM cuts total failures 0.9-3.0x, "
      "failures w/o holes 3.9-12.7x,\nand eliminates conflict handovers "
      "entirely (0%% in every column).\n");
  return 0;
}
