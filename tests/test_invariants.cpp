// rem::testkit correctness tooling: the InvariantChecker must stay silent
// on well-formed runs (synthetic and end-to-end, fault-free and chaotic)
// and must flag every class of malformed stream it claims to check. Also
// covers the REM_TEST_SEEDS / REM_BENCH_THREADS environment plumbing.
#include "testkit/invariants.hpp"
#include "testkit/seeds.hpp"

#include "common/parallel.hpp"
#include "scenario_runner.hpp"
#include "sim/fleet.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

namespace {

using rem::sim::EventKind;
using rem::sim::SignalingEvent;
using rem::sim::SimStats;
using rem::sim::TickView;
using rem::testkit::CheckerConfig;
using rem::testkit::InvariantChecker;

CheckerConfig small_config() {
  CheckerConfig cfg;
  cfg.sim.duration_s = 10.0;
  cfg.num_cells = 4;
  // These synthetic event streams model the direct command path; the
  // prep-handshake rules only apply when the backhaul transport is on.
  cfg.sim.backhaul.enabled = false;
  cfg.faults_expected = false;
  return cfg;
}

SignalingEvent ev(double t, EventKind k, int srv, int tgt,
                  double snr = 0.0) {
  return SignalingEvent{t, k, srv, tgt, snr};
}

TickView idle_tick(double t, int serving) {
  TickView v;
  v.t_s = t;
  v.serving = serving;
  v.serving_snr_db = 3.0;
  return v;
}

/// One complete, legal handover: trigger -> report -> command -> complete.
void feed_clean_handover(InvariantChecker& c, double t0, int from, int to) {
  c.on_event(ev(t0, EventKind::kMeasurementTriggered, from, to));
  auto v = idle_tick(t0, from);
  v.report_pending = true;
  c.on_tick(v);
  c.on_event(ev(t0 + 0.01, EventKind::kReportDelivered, from, to));
  v = idle_tick(t0 + 0.01, from);
  v.command_pending = true;
  c.on_tick(v);
  c.on_event(ev(t0 + 0.02, EventKind::kHoCommandDelivered, from, to));
  v = idle_tick(t0 + 0.02, from);
  v.executing = true;
  c.on_tick(v);
  c.on_event(ev(t0 + 0.07, EventKind::kHandoverComplete, from, to));
  c.on_tick(idle_tick(t0 + 0.07, to));
}

TEST(InvariantChecker, CleanHandoverSequenceIsViolationFree) {
  InvariantChecker c(small_config());
  c.on_tick(idle_tick(0.0, 0));
  feed_clean_handover(c, 1.0, 0, 1);
  SimStats stats;
  stats.handovers = 1;
  stats.successful_handovers = 1;
  stats.feedback_delays_s = {0.01};  // one delivered report
  c.on_run_end(stats);
  EXPECT_EQ(c.violation_count(), 0) << c.report();
  EXPECT_EQ(stats.invariant_violations, 0);
  EXPECT_TRUE(c.report().empty());
}

TEST(InvariantChecker, FlagsBackwardEventTimestamps) {
  InvariantChecker c(small_config());
  c.on_event(ev(1.0, EventKind::kMeasurementTriggered, 0, 1));
  c.on_event(ev(0.5, EventKind::kMeasurementTriggered, 0, 1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("backwards"), std::string::npos);
}

TEST(InvariantChecker, FlagsCompletionWithoutCommand) {
  InvariantChecker c(small_config());
  c.on_event(ev(1.0, EventKind::kHandoverComplete, 0, 1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("without a delivered command"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsOverlappingExecutions) {
  InvariantChecker c(small_config());
  c.on_event(ev(1.0, EventKind::kHoCommandDelivered, 0, 1));
  c.on_event(ev(1.1, EventKind::kHoCommandDelivered, 0, 2));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("overlapping T304"), std::string::npos);
}

TEST(InvariantChecker, FlagsRlfWithoutRunningT310) {
  InvariantChecker c(small_config());
  c.on_event(ev(2.0, EventKind::kRadioLinkFailure, 0, -1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("without a running T310"), std::string::npos);
}

TEST(InvariantChecker, AcceptsRlfAfterFullT310Budget) {
  InvariantChecker c(small_config());
  // Arm T310 legitimately: N310 out-of-sync ticks, then let it run.
  double t = 0.0;
  for (int i = 1; i <= rem::sim::kN310; ++i) {
    t += 0.01;
    auto v = idle_tick(t, 0);
    v.serving_snr_db = -20.0;
    v.oos_count = i;
    v.t310_running = i == rem::sim::kN310;
    c.on_tick(v);
  }
  const double armed = t;
  while (t - armed < rem::sim::kT310_s) {
    t += 0.01;
    auto v = idle_tick(t, 0);
    v.serving_snr_db = -20.0;
    v.oos_count = rem::sim::kN310;
    v.t310_running = true;
    c.on_tick(v);
  }
  c.on_event(ev(t + 0.01, EventKind::kRadioLinkFailure, 0, -1));
  auto v = idle_tick(t + 0.01, 0);
  v.in_outage = true;
  v.serving_snr_db = -20.0;
  c.on_tick(v);
  EXPECT_EQ(c.violation_count(), 0) << c.report();
}

TEST(InvariantChecker, FlagsPrematureReestablishment) {
  auto cfg = small_config();
  InvariantChecker c(cfg);
  c.on_event(ev(1.0, EventKind::kHoCommandDelivered, 0, 1));
  c.on_event(ev(1.05, EventKind::kT304Expiry, 0, 1));
  // T304 fallback floor is kT304Reestablish_s (0.3 s); 0.05 s is too fast.
  c.on_event(ev(1.10, EventKind::kReestablished, 1, -1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("search-time floor"), std::string::npos);
}

TEST(InvariantChecker, FlagsEarlyT310Arming) {
  InvariantChecker c(small_config());
  c.on_tick(idle_tick(0.0, 0));
  auto v = idle_tick(0.01, 0);
  v.t310_running = true;
  v.oos_count = rem::sim::kN310 - 2;  // armed before N310 out-of-syncs
  c.on_tick(v);
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("T310 armed after only"), std::string::npos);
}

TEST(InvariantChecker, FlagsStaleEstimatesWithFreshPilots) {
  InvariantChecker c(small_config());
  auto v = idle_tick(0.0, 0);
  v.pilot_fault = false;
  v.estimate_age_s = 0.5;
  c.on_tick(v);
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("fresh pilots"), std::string::npos);
}

TEST(InvariantChecker, FlagsDegradedEntryOnManagerWithoutFallback) {
  auto cfg = small_config();
  cfg.expect_no_degraded = true;
  cfg.faults_expected = true;  // isolate: faults alone are legal here
  InvariantChecker c(cfg);
  c.on_event(ev(1.0, EventKind::kDegradedEnter, 0, -1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("no fallback"), std::string::npos);
}

TEST(InvariantChecker, FlagsFaultWindowOnFaultFreeRun) {
  InvariantChecker c(small_config());
  c.on_event(ev(1.0, EventKind::kFaultStart, 0, 1));
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("fault-free run"), std::string::npos);
}

TEST(InvariantChecker, FlagsStatsDisagreeingWithEventStream) {
  InvariantChecker c(small_config());
  c.on_tick(idle_tick(0.0, 0));
  SimStats stats;
  stats.handovers = 1;  // no command was ever delivered
  c.on_run_end(stats);
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_EQ(stats.invariant_violations, c.violation_count());
  EXPECT_NE(c.report().find("SimStats::handovers"), std::string::npos);
}

TEST(InvariantChecker, FlagsCauseSplitSampleAndExactSumDrift) {
  // The checker is the one event-derived recount: the Table 2 split, the
  // per-report feedback samples, and the bit-exact prep-RTT and outage
  // sums must all agree with the event stream.
  InvariantChecker c(small_config());
  c.on_tick(idle_tick(0.0, 0));
  feed_clean_handover(c, 1.0, 0, 1);
  SimStats stats;
  stats.handovers = 1;
  stats.successful_handovers = 1;
  stats.failures_by_cause[rem::sim::FailureCause::kMissedCell] = 1;
  stats.prep_rtt_sum_s = 0.02;  // no ack was ever seen
  c.on_run_end(stats);          // and no sample for the delivered report
  const std::string report = c.report();
  EXPECT_NE(report.find("failures_by_cause"), std::string::npos) << report;
  EXPECT_NE(report.find("feedback delay samples"), std::string::npos)
      << report;
  EXPECT_NE(report.find("SimStats::prep_rtt_sum_s"), std::string::npos)
      << report;

  InvariantChecker outage(small_config());
  outage.on_event(ev(5.0, EventKind::kRadioLinkFailure, 0, -1));
  outage.on_event(ev(6.0, EventKind::kReestablished, 1, -1));
  SimStats drifted;
  drifted.failures = 1;
  drifted.failures_by_cause[rem::sim::FailureCause::kCoverageHole] = 1;
  drifted.outage_durations_s = {1.0 + 1e-12};  // one ULP-scale slip
  outage.on_run_end(drifted);
  EXPECT_NE(outage.report().find("outage duration sum"), std::string::npos)
      << outage.report();
}

TEST(InvariantChecker, FlagsLoopAccountingMismatch) {
  InvariantChecker c(small_config());
  feed_clean_handover(c, 1.0, 0, 1);
  SimStats stats;
  stats.handovers = 1;
  stats.successful_handovers = 1;
  stats.loop_handovers = 3;  // the event stream shows none
  c.on_run_end(stats);
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("recount"), std::string::npos);
}

TEST(InvariantChecker, CountsPersistentPingPongEpisodes) {
  auto cfg = small_config();
  cfg.expect_loop_free = true;
  InvariantChecker c(cfg);
  // 0 -> 1 -> 0 -> 1 -> 0 within the loop window. The initial serving
  // cell is never in the recently-served window (mirroring the
  // simulator), so the third and fourth completions are the loop
  // handovers — two in a row, one persistent episode.
  feed_clean_handover(c, 1.0, 0, 1);
  feed_clean_handover(c, 2.0, 1, 0);
  feed_clean_handover(c, 3.0, 0, 1);
  feed_clean_handover(c, 4.0, 1, 0);
  EXPECT_EQ(c.observed_loop_handovers(), 2);
  EXPECT_EQ(c.observed_loop_episodes(), 1);
  EXPECT_EQ(c.persistent_loop_episodes(), 1);
  SimStats stats;
  stats.handovers = 4;
  stats.successful_handovers = 4;
  stats.loop_handovers = 2;
  stats.loop_episodes = 1;
  c.on_run_end(stats);
  EXPECT_GT(c.violation_count(), 0);
  EXPECT_NE(c.report().find("Theorem-2"), std::string::npos);
}

TEST(InvariantChecker, SingleLoopHandoverIsNotPersistent) {
  auto cfg = small_config();
  cfg.expect_loop_free = true;
  InvariantChecker c(cfg);
  feed_clean_handover(c, 1.0, 0, 1);
  feed_clean_handover(c, 2.0, 1, 2);
  feed_clean_handover(c, 3.0, 2, 1);   // one bounce back...
  feed_clean_handover(c, 4.0, 1, 3);   // ...then progress: episode over
  EXPECT_EQ(c.observed_loop_handovers(), 1);
  EXPECT_EQ(c.observed_loop_episodes(), 1);
  EXPECT_EQ(c.persistent_loop_episodes(), 0);
  SimStats stats;
  stats.handovers = 4;
  stats.successful_handovers = 4;
  stats.loop_handovers = 1;
  stats.loop_episodes = 1;
  stats.feedback_delays_s = {0.01, 0.01, 0.01, 0.01};  // one per report
  c.on_run_end(stats);
  EXPECT_EQ(c.violation_count(), 0) << c.report();
}

TEST(InvariantChecker, ViolationMessagesCarryTimeAndStateContext) {
  InvariantChecker c(small_config());
  c.on_event(ev(2.5, EventKind::kHandoverComplete, 0, 1));
  ASSERT_FALSE(c.violations().empty());
  const std::string& msg = c.violations().front();
  EXPECT_NE(msg.find("[t=2.500s]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("state:"), std::string::npos) << msg;
}

// ---- End-to-end: the checker rides every scenario-runner simulation ----

TEST(InvariantCheckerEndToEnd, FaultFreeRunsAreViolationFree) {
  rem::phy::LogisticBlerModel bler;
  for (const auto route : {rem::trace::Route::kLowMobilityLA,
                           rem::trace::Route::kBeijingShanghai}) {
    const double speed =
        route == rem::trace::Route::kLowMobilityLA ? 60.0 : 330.0;
    // run_seed throws std::logic_error on any violation.
    const auto r =
        rem::bench::run_seed(rem::trace::make_scenario(route, speed, 60.0), 42,
                             /*run_rem=*/true, bler);
    EXPECT_EQ(r.legacy.invariant_violations, 0);
    EXPECT_EQ(r.rem.invariant_violations, 0);
  }
}

TEST(InvariantCheckerEndToEnd, MixedFaultRunsAreViolationFree) {
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingTaiyuan,
                                      250.0, 60.0);
  sc.sim.faults = rem::testkit::golden_fault_preset("mixed", 60.0);
  const auto r = rem::bench::run_seed(sc, 7, /*run_rem=*/true, bler);
  EXPECT_EQ(r.legacy.invariant_violations, 0);
  EXPECT_EQ(r.rem.invariant_violations, 0);
}

TEST(InvariantCheckerEndToEnd, CheckerDoesNotChangeResults) {
  rem::phy::LogisticBlerModel bler;
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, 60.0);
  const auto a = rem::bench::run_seed(sc, 5, true, bler);
  // The same seed unchecked: make_world plus run_seed's fork order (legacy
  // simulation, REM manager, REM simulation) with no observer attached.
  rem::common::Rng rng(5);
  const auto world = rem::trace::make_world(sc, rng);
  rem::core::LegacyManager legacy(world.legacy);
  rem::sim::Simulator legacy_sim(world.env, sc.sim, bler, rng.fork());
  const auto b_legacy = legacy_sim.run(legacy);
  rem::core::RemManager remm(rem::core::RemConfig{}, rng.fork());
  rem::sim::Simulator rem_sim(world.env, sc.sim, bler, rng.fork());
  const auto b_rem = rem_sim.run(remm);
  // Bit-identity on purpose: the observer draws no randomness.
  EXPECT_EQ(a.legacy.handovers, b_legacy.handovers);
  EXPECT_EQ(a.legacy.failures, b_legacy.failures);
  EXPECT_EQ(a.legacy.outage_durations_s, b_legacy.outage_durations_s);
  EXPECT_EQ(a.legacy.mean_throughput_bps, b_legacy.mean_throughput_bps);
  EXPECT_EQ(a.rem.handovers, b_rem.handovers);
  EXPECT_EQ(a.rem.failures, b_rem.failures);
  EXPECT_EQ(a.rem.outage_durations_s, b_rem.outage_durations_s);
  EXPECT_EQ(a.rem.mean_throughput_bps, b_rem.mean_throughput_bps);
}

// ---- Environment plumbing (REM_TEST_SEEDS / REM_BENCH_THREADS) ----

class SeedEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("REM_TEST_SEEDS");
    ::unsetenv("REM_BENCH_THREADS");
  }
};

TEST_F(SeedEnvTest, DefaultsPassThroughWhenUnset) {
  ::unsetenv("REM_TEST_SEEDS");
  EXPECT_EQ(rem::testkit::property_seeds({1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(SeedEnvTest, BareCountWidensFromFirstDefault) {
  ::setenv("REM_TEST_SEEDS", "5", 1);
  EXPECT_EQ(rem::testkit::property_seeds({10, 11}),
            (std::vector<std::uint64_t>{10, 11, 12, 13, 14}));
}

TEST_F(SeedEnvTest, CommaListIsTakenVerbatim) {
  ::setenv("REM_TEST_SEEDS", "4,99,1000", 1);
  EXPECT_EQ(rem::testkit::property_seeds({1}),
            (std::vector<std::uint64_t>{4, 99, 1000}));
}

TEST_F(SeedEnvTest, MalformedSpecFailsLoudly) {
  ::setenv("REM_TEST_SEEDS", "3,abc", 1);
  EXPECT_THROW(rem::testkit::property_seeds({1}), std::invalid_argument);
  ::setenv("REM_TEST_SEEDS", "0", 1);
  EXPECT_THROW(rem::testkit::property_seeds({1}), std::invalid_argument);
  ::setenv("REM_TEST_SEEDS", "1,", 1);
  EXPECT_THROW(rem::testkit::property_seeds({1}), std::invalid_argument);
}

TEST_F(SeedEnvTest, BenchThreadsDefaultsToHardwareWhenUnset) {
  ::unsetenv("REM_BENCH_THREADS");
  EXPECT_EQ(rem::testkit::bench_threads(),
            rem::common::hardware_threads());
  ::setenv("REM_BENCH_THREADS", "", 1);
  EXPECT_EQ(rem::testkit::bench_threads(),
            rem::common::hardware_threads());
  ::setenv("REM_BENCH_THREADS", "3", 1);
  EXPECT_EQ(rem::testkit::bench_threads(), 3u);
}

TEST_F(SeedEnvTest, BenchThreadsRejectsBadValuesNamingThem) {
  for (const char* bad :
       {"4x", "abc", "0", "-2", " 4", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("REM_BENCH_THREADS", bad, 1);
    try {
      (void)rem::testkit::bench_threads();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("REM_BENCH_THREADS"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos)
          << msg;
    }
  }
}

// ---- Fleet invariants (testkit::fleet_invariant_report) ----

/// Minimal well-formed two-UE fleet result: per-UE logs time-sorted and
/// ue-tagged, aggregate = documented fold.
rem::sim::FleetResult small_fleet() {
  rem::sim::FleetResult r;
  r.per_ue.resize(2);
  for (int k = 0; k < 2; ++k) {
    auto& s = r.per_ue[static_cast<std::size_t>(k)];
    s.sim_time_s = 10.0;
    s.handovers = 3 + k;
    s.successful_handovers = 2 + k;
    s.t304_expiries = 1;
    s.failures = k;
    s.bs_crashes = 2;
    s.events.push_back({1.0 + k, EventKind::kHandoverComplete, 0, 1, -3.0, k});
    s.events.push_back({5.0, EventKind::kRadioLinkFailure, 1, -1, -9.0, k});
  }
  // UE 1's t=5.0 event ties UE 0's; keep UE order within the tie.
  std::sort(r.per_ue[1].events.begin(), r.per_ue[1].events.end(),
            [](const SignalingEvent& a, const SignalingEvent& b) {
              return a.t_s < b.t_s;
            });
  r.aggregate = rem::sim::merge_fleet_stats(r.per_ue);
  return r;
}

TEST(FleetInvariants, CleanResultProducesEmptyReport) {
  EXPECT_TRUE(rem::testkit::fleet_invariant_report(small_fleet()).empty());
}

TEST(FleetInvariants, EmptyResultIsFlagged) {
  EXPECT_FALSE(
      rem::testkit::fleet_invariant_report(rem::sim::FleetResult{}).empty());
}

TEST(FleetInvariants, PerUeConservationViolationIsFlagged) {
  auto r = small_fleet();
  // Successes + T304 expiries must never exceed attempts, shared-BS
  // contention or not.
  r.per_ue[0].successful_handovers = r.per_ue[0].handovers + 1;
  const auto report = rem::testkit::fleet_invariant_report(r);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report[0].find("exceed attempts"), std::string::npos);
}

TEST(FleetInvariants, AggregateSumDriftIsFlagged) {
  auto r = small_fleet();
  r.aggregate.handovers += 1;
  bool found = false;
  for (const auto& line : rem::testkit::fleet_invariant_report(r))
    found = found || line.find("aggregate.handovers") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(FleetInvariants, CrashWindowDisagreementIsFlagged) {
  auto r = small_fleet();
  // Crash windows are global: every UE must report the same count.
  r.per_ue[1].bs_crashes += 1;
  bool found = false;
  for (const auto& line : rem::testkit::fleet_invariant_report(r))
    found = found || line.find("bs_crashes disagree") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(FleetInvariants, CrossUeTimestampRegressionIsFlagged) {
  auto r = small_fleet();
  // Swap the middle events (UE 1's t=2.0 behind UE 0's t=5.0): each UE's
  // own order survives, but the merged timeline now runs backwards.
  ASSERT_EQ(r.aggregate.events.size(), 4u);
  std::swap(r.aggregate.events[1], r.aggregate.events[2]);
  bool found = false;
  for (const auto& line : rem::testkit::fleet_invariant_report(r))
    found = found || line.find("regresses") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(FleetInvariants, WrongUeTagIsFlagged) {
  auto r = small_fleet();
  r.per_ue[1].events[0].ue = 0;
  bool found = false;
  for (const auto& line : rem::testkit::fleet_invariant_report(r))
    found = found || line.find("tagged ue=") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(FleetInvariants, PerUeOrderLossInMergedLogIsFlagged) {
  auto r = small_fleet();
  // Same timestamps, but UE 0's entry mutates: the merged log no longer
  // reproduces that UE's own log in order.
  ASSERT_EQ(r.aggregate.events[0].ue, 0);
  r.aggregate.events[0].serving_snr_db += 1.0;
  bool found = false;
  for (const auto& line : rem::testkit::fleet_invariant_report(r))
    found = found || line.find("order not preserved") != std::string::npos;
  EXPECT_TRUE(found);
}

}  // namespace
