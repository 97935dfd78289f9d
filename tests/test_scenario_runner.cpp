// The scenario runner must produce output bit-identical to its 1-thread
// (serial) run for the same seed list, independent of thread count: every
// floating-point accumulation happens in merge_seed_results() in seed
// order, never in completion order.
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

namespace {

using rem::bench::AggregateStats;
using rem::bench::ScenarioRun;

void expect_identical(const AggregateStats& a, const AggregateStats& b,
                      const char* which) {
  SCOPED_TRACE(which);
  // Doubles compared with == on purpose: the guarantee is bit-identity.
  EXPECT_EQ(rem::testkit::diff_stats(a.total, b.total), "");
  EXPECT_EQ(a.handover_interval_s.samples(), b.handover_interval_s.samples());
  EXPECT_EQ(a.feedback_delay_s.samples(), b.feedback_delay_s.samples());
  EXPECT_EQ(a.throughput_bps.samples(), b.throughput_bps.samples());
  EXPECT_EQ(a.downtime_fraction.samples(), b.downtime_fraction.samples());
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  expect_identical(a.legacy, b.legacy, "legacy");
  expect_identical(a.rem, b.rem, "rem");
  EXPECT_EQ(a.conflict_histogram, b.conflict_histogram);
  EXPECT_EQ(a.total_conflicts, b.total_conflicts);
}

}  // namespace

TEST(ScenarioRunner, ParallelIsBitIdenticalAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds = {3, 1, 7, 2};
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, 200.0);

  const auto serial = rem::bench::run_route(sc, seeds);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto par = rem::bench::run_route(sc, seeds, true, threads);
    expect_identical(serial, par);
  }
}

TEST(ScenarioRunner, LegacyOnlyParallelMatchesSerial) {
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingTaiyuan, 250.0, 150.0);
  const auto serial = rem::bench::run_route(sc, seeds, /*run_rem=*/false);
  const auto par = rem::bench::run_route(sc, seeds, /*run_rem=*/false, 3);
  expect_identical(serial, par);
  EXPECT_EQ(par.rem.total.handovers, 0);
  EXPECT_TRUE(par.rem.throughput_bps.samples().empty());
}

TEST(ScenarioRunner, MergeOrderFollowsSeedListNotCompletion) {
  // Two permutations of the same seed list must yield the same totals but
  // merge per-seed samples in their respective list orders.
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, 150.0);
  const auto ab = rem::bench::run_route(sc, {5, 9}, true, 2);
  const auto ba = rem::bench::run_route(sc, {9, 5}, true, 2);
  EXPECT_EQ(ab.legacy.total.handovers, ba.legacy.total.handovers);
  EXPECT_EQ(ab.legacy.total.failures, ba.legacy.total.failures);
  ASSERT_EQ(ab.legacy.throughput_bps.samples().size(),
            ba.legacy.throughput_bps.samples().size());
  if (ab.legacy.throughput_bps.samples().size() == 2) {
    EXPECT_EQ(ab.legacy.throughput_bps.samples()[0],
              ba.legacy.throughput_bps.samples()[1]);
    EXPECT_EQ(ab.legacy.throughput_bps.samples()[1],
              ba.legacy.throughput_bps.samples()[0]);
  }
}
