// Randomized-schedule chaos soak: every registered FaultKind fires from a
// seeded random schedule (kinds overlapping freely) over multi-seed runs
// with the invariant checker attached. The point is not a specific
// behavioural assertion — it is to drive the simulator's fault machinery
// through schedule interleavings no scripted test enumerates, under
// sanitizers (scripts/check_soak.sh runs this binary in the ASan/UBSan
// and TSan build trees), with the checker turning any protocol-state or
// accounting violation into a test failure.
#include "fleet_runner.hpp"
#include "scenario_runner.hpp"
#include "sim/fault_injector.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace rs = rem::sim;

namespace {

/// One random spec per registered FaultKind, magnitudes inside each
/// kind's legal range. Gaps are short so a 50 s run sees several windows
/// of most kinds; different kinds may overlap (only same-kind overlap is
/// illegal, and generated schedules never self-overlap).
rs::FaultConfig random_everything() {
  rs::FaultConfig cfg;
  cfg.random = {
      {rs::FaultKind::kSignalingLoss, 25.0, 1.0, 4.0, 0.5, 1.0},
      {rs::FaultKind::kPilotOutage, 25.0, 2.0, 6.0, 1.0, 4.0},
      {rs::FaultKind::kProcessingStall, 25.0, 2.0, 8.0, 0.2, 0.6},
      {rs::FaultKind::kCoverageBlackout, 30.0, 1.0, 3.0, 40.0, 60.0},
      {rs::FaultKind::kCommandDuplication, 25.0, 5.0, 15.0, 1.0, 1.0},
      {rs::FaultKind::kBackhaulLoss, 25.0, 5.0, 15.0, 0.02, 0.10},
      {rs::FaultKind::kBackhaulDelay, 25.0, 3.0, 8.0, 0.01, 0.03},
      {rs::FaultKind::kBackhaulPartition, 30.0, 1.0, 3.0, 1.0, 1.0},
      {rs::FaultKind::kBsOverload, 25.0, 2.0, 8.0, 0.5, 1.0},
      {rs::FaultKind::kBsCrashRestart, 30.0, 1.0, 4.0, 1.0, 1.0},
      // Correlated-regional kinds: the random crash spec above doubles as
      // the cascade's crash trigger, and staggered domain blackouts
      // interleave with every other class.
      {rs::FaultKind::kRegionOutage, 35.0, 1.0, 3.0, 1.0, 1.0},
      {rs::FaultKind::kCascadeOverload, 30.0, 3.0, 8.0, 0.5, 0.9},
  };
  return cfg;
}

/// A `duration_s` run of `route` at `speed_kmh` under random_everything().
rem::trace::Scenario soak_scenario(rem::trace::Route route, double speed_kmh,
                                   double duration_s) {
  auto sc = rem::trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.faults = random_everything();
  return sc;
}

}  // namespace

TEST(ChaosSoak, RandomizedAllFaultScheduleHoldsInvariants) {
  // The schedule itself is derived from each seed's Rng, so every seed
  // soaks a different interleaving; run_seed throws (failing the test)
  // on any invariant violation, and the sanitizer builds catch memory
  // and data-race bugs the checker cannot see.
  rem::phy::LogisticBlerModel bler;
  const auto sc =
      soak_scenario(rem::trace::Route::kBeijingShanghai, 300.0, 50.0);
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto r = rem::bench::run_seed(sc, seed, true, bler);
    // Minimal liveness: the runs simulated the full horizon and the BS
    // capacity model actually saw traffic under the fault mix.
    EXPECT_EQ(r.legacy.sim_time_s, 50.0);
    EXPECT_EQ(r.rem.sim_time_s, 50.0);
    EXPECT_GT(r.legacy.bs_jobs_submitted + r.rem.bs_jobs_submitted, 0);
  }
}

TEST(ChaosSoak, RandomizedScheduleReplaysBitIdentically) {
  // Same seed, same spec: the randomized soak is still deterministic, so
  // a sanitizer hit here is reproducible by rerunning the same test.
  rem::phy::LogisticBlerModel bler;
  const auto sc =
      soak_scenario(rem::trace::Route::kBeijingTaiyuan, 250.0, 45.0);
  const auto a = rem::bench::run_seed(sc, 5, true, bler);
  const auto b = rem::bench::run_seed(sc, 5, true, bler);
  EXPECT_EQ(rem::testkit::diff_stats(a.legacy, b.legacy), "");
  EXPECT_EQ(rem::testkit::diff_stats(a.rem, b.rem), "");
}

TEST(ChaosSoak, RandomizedAllFaultFleetHoldsInvariants) {
  // The fleet engine under the same everything-at-once chaos: N UEs
  // contending for BS slots and backhaul capacity while every fault kind
  // fires from seeded random schedules. One InvariantChecker per UE plus
  // the fleet-level report (run_fleet_scenario throws on either), under
  // the sanitizer builds via scripts/check_soak.sh.
  rem::phy::LogisticBlerModel bler;
  auto sc = soak_scenario(rem::trace::Route::kBeijingShanghai, 300.0, 40.0);
  sc.sim.fleet_size = 8;
  // Arm the cascade-resilience stack (load ads, breakers, storm jitter) so
  // those code paths run under the sanitizers too.
  rem::testkit::arm_resilience(sc.sim);
  for (const std::uint64_t seed : {44ULL, 55ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (bool use_rem : {false, true}) {
      SCOPED_TRACE(use_rem ? "rem" : "legacy");
      const auto r = rem::bench::run_fleet_scenario(sc, seed, bler, use_rem);
      ASSERT_EQ(r.per_ue.size(), 8u);
      for (const auto& s : r.per_ue) EXPECT_EQ(s.sim_time_s, 40.0);
      EXPECT_GT(r.aggregate.bs_jobs_submitted, 0);
    }
  }
}

TEST(ChaosSoak, RandomizedFleetReplaysBitIdentically) {
  rem::phy::LogisticBlerModel bler;
  auto sc = soak_scenario(rem::trace::Route::kBeijingTaiyuan, 250.0, 30.0);
  sc.sim.fleet_size = 6;
  rem::testkit::arm_resilience(sc.sim);
  const auto a = rem::bench::run_fleet_scenario(sc, 7, bler, true);
  const auto b = rem::bench::run_fleet_scenario(sc, 7, bler, true);
  ASSERT_EQ(a.per_ue.size(), b.per_ue.size());
  for (std::size_t k = 0; k < a.per_ue.size(); ++k) {
    SCOPED_TRACE("ue " + std::to_string(k));
    EXPECT_EQ(rem::testkit::diff_stats(a.per_ue[k], b.per_ue[k]), "");
  }
  EXPECT_EQ(rem::testkit::diff_stats(a.aggregate, b.aggregate), "");
}
