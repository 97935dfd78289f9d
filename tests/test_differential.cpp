// Differential oracle: LegacyManager vs RemManager on bit-identical
// channel/fault timelines (same seed -> same deployment, fading, and
// fault schedule), asserting the paper's dominance relations as
// *properties over a seed sweep* rather than two hand-picked examples:
//   - REM's failure ratio never exceeds legacy's on any seed (§7.1);
//   - REM's deployed coordinated A3 offsets satisfy Theorem 2 exactly
//     (so no *policy-conflict* loop is satisfiable), and its realized
//     persistent ping-ponging never exceeds legacy's over the sweep;
//   - the verdicts are identical at any runner thread count.
// Widen the sweep with REM_TEST_SEEDS (count or comma list).
#include "mobility/conflict.hpp"
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"
#include "testkit/seeds.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using rem::bench::SeedRunResult;

/// Persistent ping-pong episodes (>= 2 consecutive loop handovers) from
/// an event log, mirroring the simulator's loop-window bookkeeping.
int persistent_loops(const rem::sim::EventLog& log, double window_s) {
  std::vector<std::pair<double, int>> recent;
  bool in_episode = false;
  int run_length = 0, persistent = 0;
  for (const auto& e : log) {
    if (e.kind == rem::sim::EventKind::kReestablished) {
      recent.push_back({e.t_s, e.serving_cell});
      continue;
    }
    if (e.kind != rem::sim::EventKind::kHandoverComplete) continue;
    bool is_loop = false;
    for (const auto& [ts, idx] : recent)
      if (e.t_s - ts <= window_s && idx == e.target_cell) {
        is_loop = true;
        break;
      }
    recent.push_back({e.t_s, e.target_cell});
    while (!recent.empty() && e.t_s - recent.front().first > window_s)
      recent.erase(recent.begin());
    if (is_loop) {
      if (!in_episode) {
        in_episode = true;
        run_length = 1;
      } else if (++run_length == 2) {
        ++persistent;
      }
    } else {
      in_episode = false;
      run_length = 0;
    }
  }
  return persistent;
}

std::vector<SeedRunResult> sweep(rem::trace::Route route, double speed_kmh,
                                 double duration_s,
                                 const std::vector<std::uint64_t>& seeds,
                                 std::size_t threads) {
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.record_events = true;  // loop analysis needs the event stream
  std::vector<SeedRunResult> out(seeds.size());
  std::vector<std::string> errors(seeds.size());
  rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
    try {
      out[i] = rem::bench::run_seed(sc, seeds[i], /*run_rem=*/true, bler);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < seeds.size(); ++i)
    EXPECT_TRUE(errors[i].empty())
        << "seed " << seeds[i] << ": " << errors[i];
  return out;
}

class DifferentialOracle
    : public ::testing::TestWithParam<rem::trace::Route> {};

TEST_P(DifferentialOracle, RemDominatesLegacyOnEverySeed) {
  const auto route = GetParam();
  const double speed =
      route == rem::trace::Route::kLowMobilityLA ? 60.0 : 300.0;
  const auto seeds =
      rem::testkit::property_seeds({1, 2, 3, 4, 5, 6, 7, 8});
  const auto runs = sweep(route, speed, 200.0, seeds,
                          rem::testkit::bench_threads());

  const double window = rem::sim::kLoopWindow_s;
  int legacy_failures = 0, rem_failures = 0;
  int legacy_persistent = 0, rem_persistent = 0;
  int legacy_static_conflicts = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    const auto& r = runs[i];
    ASSERT_TRUE(r.has_rem);
    // Dominance: REM never fails more often than legacy on the identical
    // timeline.
    EXPECT_LE(r.rem.failure_ratio(), r.legacy.failure_ratio())
        << "rem " << r.rem.failures << "/" << r.rem.handovers
        << " vs legacy " << r.legacy.failures << "/" << r.legacy.handovers;
    legacy_failures += r.legacy.failures;
    rem_failures += r.rem.failures;
    legacy_persistent += persistent_loops(r.legacy.events, window);
    rem_persistent += persistent_loops(r.rem.events, window);
    legacy_static_conflicts += r.total_conflicts;
  }
  // Theorem 2 removes *policy-conflict* loops, not fading: deep fades can
  // still bounce a client between two cells for a couple of handovers
  // (observed run lengths up to 3 for REM vs 7 for legacy). The realized
  // dominance relation is therefore differential: over the sweep REM's
  // persistent ping-ponging never exceeds that of legacy's conflicted
  // policy set, which analyzably carries conflicts on every seed.
  EXPECT_GT(legacy_static_conflicts, 0);
  EXPECT_LE(rem_persistent, legacy_persistent);
  // Aggregate separation: over the whole sweep REM strictly improves.
  EXPECT_LT(rem_failures, legacy_failures);
}

TEST(DifferentialOracle, DeployedRemOffsetsSatisfyTheorem2) {
  // The exact (static) half of "loop-free after repair": the uniform
  // coordinated offset REM deploys satisfies the Theorem 2 precondition
  // for every (i, j, k) triple, so no pure-A3 persistent loop is even
  // satisfiable — what the sweep above observes dynamically.
  const double delta = rem::core::RemConfig{}.a3_offset_db;
  ASSERT_GE(delta, 0.0);
  const std::size_t n = 8;
  std::vector<std::vector<double>> deltas(n, std::vector<double>(n, delta));
  EXPECT_TRUE(rem::mobility::check_theorem2(deltas).empty());
  // And for any cycle drawn from that matrix the offset sum is
  // non-negative, i.e. the loop region is empty (proof of Theorem 2).
  EXPECT_FALSE(rem::mobility::a3_cycle_satisfiable(
      std::vector<double>(4, delta)));
}

INSTANTIATE_TEST_SUITE_P(
    Routes, DifferentialOracle,
    ::testing::Values(rem::trace::Route::kLowMobilityLA,
                      rem::trace::Route::kBeijingShanghai),
    [](const ::testing::TestParamInfo<rem::trace::Route>& info) {
      switch (info.param) {
        case rem::trace::Route::kLowMobilityLA: return std::string("LA");
        case rem::trace::Route::kBeijingTaiyuan: return std::string("BT");
        case rem::trace::Route::kBeijingShanghai: return std::string("BS");
      }
      return std::string("unknown");
    });

TEST(DifferentialOracle, VerdictsAreThreadCountInvariant) {
  const auto route = rem::trace::Route::kBeijingTaiyuan;
  const std::vector<std::uint64_t> seeds = {3, 5, 11};
  const auto base = sweep(route, 250.0, 120.0, seeds, 1);
  for (const std::size_t threads : {2UL, 8UL}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto other = sweep(route, 250.0, 120.0, seeds, threads);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      // Bit-identical per-seed stats -> identical differential verdicts.
      EXPECT_EQ(base[i].legacy.failures, other[i].legacy.failures);
      EXPECT_EQ(base[i].legacy.handovers, other[i].legacy.handovers);
      EXPECT_EQ(base[i].rem.failures, other[i].rem.failures);
      EXPECT_EQ(base[i].rem.handovers, other[i].rem.handovers);
      EXPECT_EQ(base[i].rem.events.size(), other[i].rem.events.size());
      EXPECT_EQ(base[i].legacy.mean_throughput_bps,
                other[i].legacy.mean_throughput_bps);
      EXPECT_EQ(base[i].rem.mean_throughput_bps,
                other[i].rem.mean_throughput_bps);
    }
  }
}

TEST(DifferentialOracle, FaultedTimelinesPreserveDominanceInAggregate) {
  // Under the mixed fault schedule both managers suffer; REM must still
  // come out no worse in aggregate over the sweep. (Per-seed dominance is
  // not asserted here: a fault window can land on REM's handover and miss
  // legacy's.)
  rem::phy::LogisticBlerModel bler;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      330.0, 150.0);
  sc.sim.faults = rem::testkit::golden_fault_preset("mixed", 150.0);
  int legacy_failures = 0, rem_failures = 0;
  int legacy_handovers = 0, rem_handovers = 0;
  for (const auto seed : seeds) {
    const auto r = rem::bench::run_seed(sc, seed, true, bler);
    legacy_failures += r.legacy.failures;
    rem_failures += r.rem.failures;
    legacy_handovers += r.legacy.handovers;
    rem_handovers += r.rem.handovers;
  }
  const auto ratio = [](int f, int h) {
    return h + f > 0 ? static_cast<double>(f) / (h + f) : 0.0;
  };
  EXPECT_LE(ratio(rem_failures, rem_handovers),
            ratio(legacy_failures, legacy_handovers));
}

}  // namespace
