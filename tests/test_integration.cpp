// End-to-end integration: synthesize a scenario, run the full simulator
// with both managers, and check the paper's headline relationships hold.
#include "common/stats.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "mobility/simplify.hpp"
#include "phy/bler_model.hpp"
#include "trace/scenario.hpp"

#include <gtest/gtest.h>

namespace rt = rem::trace;
namespace rs = rem::sim;
namespace rc = rem::core;
namespace rm = rem::mobility;

namespace {

struct RunResult {
  rs::SimStats legacy;
  rs::SimStats rem;
};

RunResult run_scenario(rt::Route route, double speed_kmh,
                       std::uint64_t seed, double duration_s = 1200.0) {
  const auto sc = rt::make_scenario(route, speed_kmh, duration_s);
  rem::common::Rng rng(seed);
  const auto world = rt::make_world(sc, rng);

  rem::phy::LogisticBlerModel bler;

  rc::LegacyManager legacy(world.legacy);
  rs::Simulator s1(world.env, sc.sim, bler, rng.fork());

  rc::RemManager remm(rc::RemConfig{}, rng.fork());
  rs::Simulator s2(world.env, sc.sim, bler, rng.fork());

  RunResult out;
  out.legacy = s1.run(legacy);
  out.rem = s2.run(remm);
  return out;
}

}  // namespace

TEST(Integration, HandoversHappenAtAllSpeeds) {
  for (double speed : {60.0, 250.0}) {
    const auto r = run_scenario(
        speed < 150 ? rt::Route::kLowMobilityLA
                    : rt::Route::kBeijingShanghai,
        speed, 11, 600.0);
    EXPECT_GT(r.legacy.handovers, 5) << speed;
    EXPECT_GT(r.rem.handovers, 5) << speed;
  }
}

TEST(Integration, HandoverIntervalShrinksWithSpeed) {
  const auto slow = run_scenario(rt::Route::kLowMobilityLA, 60.0, 13, 900.0);
  const auto fast =
      run_scenario(rt::Route::kBeijingShanghai, 330.0, 13, 900.0);
  ASSERT_GT(slow.legacy.avg_handover_interval_s, 0.0);
  ASSERT_GT(fast.legacy.avg_handover_interval_s, 0.0);
  EXPECT_GT(slow.legacy.avg_handover_interval_s,
            2.0 * fast.legacy.avg_handover_interval_s);
}

TEST(Integration, LegacyFailuresGrowWithSpeed) {
  // Aggregate two seeds to stabilize the ratio.
  double slow_ratio = 0.0, fast_ratio = 0.0;
  for (std::uint64_t seed : {17u, 18u}) {
    slow_ratio +=
        run_scenario(rt::Route::kLowMobilityLA, 60.0, seed).legacy
            .failure_ratio();
    fast_ratio +=
        run_scenario(rt::Route::kBeijingShanghai, 330.0, seed).legacy
            .failure_ratio();
  }
  EXPECT_GT(fast_ratio, slow_ratio);
}

TEST(Integration, RemReducesFailuresOnHsr) {
  int legacy_fail = 0, rem_fail = 0, legacy_den = 0, rem_den = 0;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const auto r = run_scenario(rt::Route::kBeijingShanghai, 300.0, seed);
    legacy_fail += r.legacy.failures;
    rem_fail += r.rem.failures;
    legacy_den += r.legacy.failures + r.legacy.handovers;
    rem_den += r.rem.failures + r.rem.handovers;
  }
  const double lr = static_cast<double>(legacy_fail) / legacy_den;
  const double rr = static_cast<double>(rem_fail) / rem_den;
  EXPECT_LT(rr, lr * 0.7) << "legacy " << lr << " rem " << rr;
}

TEST(Integration, RemFailuresExcludingHolesNearZero) {
  int rem_non_hole = 0, rem_den = 0;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const auto r = run_scenario(rt::Route::kBeijingShanghai, 250.0, seed);
    int holes = 0;
    const auto it =
        r.rem.failures_by_cause.find(rs::FailureCause::kCoverageHole);
    if (it != r.rem.failures_by_cause.end()) holes = it->second;
    rem_non_hole += r.rem.failures - holes;
    rem_den += r.rem.failures + r.rem.handovers;
  }
  EXPECT_LT(static_cast<double>(rem_non_hole) / rem_den, 0.02);
}

TEST(Integration, RemEliminatesConflictLoops) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingTaiyuan, 250.0, 900.0);
  rem::common::Rng rng(41);
  auto world = rt::make_world(sc, rng);
  rem::phy::LogisticBlerModel bler;

  // Exact pairwise conflict predicate over the synthesized policies.
  const auto policy_cells =
      rt::to_policy_cells(world.env.cells(), world.legacy.policies);
  const auto conflicts = rm::find_two_cell_conflicts(policy_cells);
  std::set<std::pair<int, int>> conflict_pairs;
  for (const auto& c : conflicts) {
    conflict_pairs.insert({c.cell_i, c.cell_j});
    conflict_pairs.insert({c.cell_j, c.cell_i});
  }
  const auto pair_fn = [&](int a, int b) {
    return conflict_pairs.count({a, b}) > 0;
  };

  world.legacy.measurement = {};  // stock timers, not the route's TTTs
  rc::LegacyManager legacy(world.legacy);
  rs::Simulator s1(world.env, sc.sim, bler, rng.fork());
  const auto legacy_stats = s1.run(legacy, pair_fn);

  // REM's simplified policies are conflict-free (Theorem 2), so its
  // conflict predicate is empty by construction.
  rc::RemManager remm(rc::RemConfig{}, rng.fork());
  rs::Simulator s2(world.env, sc.sim, bler, rng.fork());
  const auto rem_stats = s2.run(remm, [](int, int) { return false; });

  EXPECT_GT(legacy_stats.conflict_loop_episodes, 0);
  EXPECT_EQ(rem_stats.conflict_loop_episodes, 0);
}

TEST(Integration, SynthesizedPoliciesConflictAtPaperScale) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingShanghai, 300.0);
  rem::common::Rng rng(51);
  auto cells = rs::make_rail_deployment(sc.deployment, rng);
  auto policies = rt::synthesize_policies(cells, sc.policy_mix, rng);
  const auto conflicts =
      rm::find_two_cell_conflicts(rt::to_policy_cells(cells, policies));
  EXPECT_GT(conflicts.size(), 0u);
  // A3-A3 should be a major class (Table 3: 55.9% on Beijing-Shanghai).
  const auto hist = rm::conflict_histogram(conflicts);
  const auto it = hist.find("A3-A3");
  ASSERT_NE(it, hist.end());
  EXPECT_GT(it->second, 0);
}

TEST(Integration, SimplifiedPoliciesPassTheorem2) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingTaiyuan, 250.0);
  rem::common::Rng rng(61);
  auto cells = rs::make_rail_deployment(sc.deployment, rng);
  auto policies = rt::synthesize_policies(cells, sc.policy_mix, rng);
  auto pcs = rt::to_policy_cells(cells, policies);
  for (auto& pc : pcs) pc.policy = rm::simplify_policy(pc.policy);
  rm::coordinate_offsets(pcs);
  EXPECT_TRUE(rm::find_two_cell_conflicts(pcs).empty());
}

TEST(Integration, FeedbackDelaysRecorded) {
  const auto r = run_scenario(rt::Route::kBeijingShanghai, 300.0, 71, 600.0);
  ASSERT_FALSE(r.legacy.feedback_delays_s.empty());
  ASSERT_FALSE(r.rem.feedback_delays_s.empty());
  rem::common::Summary lg, rm_;
  lg.add_all(r.legacy.feedback_delays_s);
  rm_.add_all(r.rem.feedback_delays_s);
  EXPECT_GT(lg.mean(), rm_.mean());
}
