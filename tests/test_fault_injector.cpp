// FaultInjector determinism and the chaos harness's end-to-end guarantees:
// identical (config, seed) pairs replay identical fault timelines and
// produce bit-identical SimStats, serial or seed-parallel at any thread
// count; every fault class has an observable effect on the right counter.
#include "scenario_runner.hpp"
#include "sim/fault_injector.hpp"
#include "testkit/golden.hpp"
#include "trace/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rs = rem::sim;

namespace {

bool same_windows(const std::vector<rs::FaultWindow>& a,
                  const std::vector<rs::FaultWindow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].start_s != b[i].start_s ||
        a[i].duration_s != b[i].duration_s ||
        a[i].magnitude != b[i].magnitude)
      return false;
  }
  return true;
}

/// Periodic scripted windows of one kind over [first_s, horizon_s).
rs::FaultConfig periodic(rs::FaultKind kind, double first_s, double period_s,
                         double duration_s, double magnitude,
                         double horizon_s) {
  rs::FaultConfig cfg;
  for (double t = first_s; t < horizon_s; t += period_s)
    cfg.windows.push_back({kind, t, duration_s, magnitude});
  return cfg;
}

}  // namespace

TEST(FaultKindName, NamesAllKindsAndRejectsInvalid) {
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kSignalingLoss),
            "signaling_burst_loss");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kPilotOutage),
            "pilot_outage");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kProcessingStall),
            "processing_stall");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kCoverageBlackout),
            "coverage_blackout");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kCommandDuplication),
            "command_duplication");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kBackhaulLoss),
            "backhaul_loss");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kBackhaulDelay),
            "backhaul_delay");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kBackhaulPartition),
            "backhaul_partition");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kBsOverload), "bs_overload");
  EXPECT_EQ(rs::fault_kind_name(rs::FaultKind::kBsCrashRestart),
            "bs_crash_restart");
  EXPECT_THROW(rs::fault_kind_name(static_cast<rs::FaultKind>(99)),
               std::invalid_argument);
}

TEST(FaultKindName, RoundTripsEveryRegisteredKind) {
  // Exhaustive over kNumFaultKinds: a kind can never ship with a name the
  // parser does not resolve back (configs and JSON would silently rot).
  for (std::size_t i = 0; i < rs::kNumFaultKinds; ++i) {
    const auto k = static_cast<rs::FaultKind>(i);
    const auto name = rs::fault_kind_name(k);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(rs::fault_kind_from_name(name), k) << name;
  }
  EXPECT_THROW(rs::fault_kind_from_name("no_such_fault"),
               std::invalid_argument);
  EXPECT_THROW(rs::fault_kind_from_name(""), std::invalid_argument);
}

TEST(FaultInjector, DefaultInjectorIsInert) {
  rs::FaultInjector fi;
  EXPECT_FALSE(fi.any());
  EXPECT_FALSE(fi.active(rs::FaultKind::kSignalingLoss, 10.0));
  EXPECT_EQ(fi.magnitude(rs::FaultKind::kCoverageBlackout, 10.0), 0.0);
}

TEST(FaultInjector, ScriptedWindowsAdjacentKindsAndBounds) {
  rs::FaultConfig cfg;
  cfg.windows = {
      // Touching same-kind windows are legal: the end is exclusive, so
      // [10, 15) and [15, 20) never overlap.
      {rs::FaultKind::kSignalingLoss, 10.0, 5.0, 0.5},
      {rs::FaultKind::kSignalingLoss, 15.0, 5.0, 0.9},
      {rs::FaultKind::kCoverageBlackout, 30.0, 4.0, 60.0},
  };
  rs::FaultInjector fi(cfg, 100.0, rem::common::Rng(1));
  ASSERT_TRUE(fi.any());
  EXPECT_EQ(fi.magnitude(rs::FaultKind::kSignalingLoss, 11.0), 0.5);
  // The boundary tick belongs to the later window.
  EXPECT_EQ(fi.magnitude(rs::FaultKind::kSignalingLoss, 15.0), 0.9);
  EXPECT_EQ(fi.magnitude(rs::FaultKind::kSignalingLoss, 17.0), 0.9);
  EXPECT_EQ(fi.magnitude(rs::FaultKind::kSignalingLoss, 25.0), 0.0);
  // Kinds do not bleed into each other.
  EXPECT_TRUE(fi.active(rs::FaultKind::kCoverageBlackout, 31.0));
  EXPECT_FALSE(fi.active(rs::FaultKind::kSignalingLoss, 31.0));
  // Window end is exclusive, start inclusive.
  EXPECT_TRUE(fi.active(rs::FaultKind::kCoverageBlackout, 30.0));
  EXPECT_FALSE(fi.active(rs::FaultKind::kCoverageBlackout, 34.0));
}

TEST(FaultInjector, RejectsInvalidScriptedWindows) {
  const auto build = [](std::vector<rs::FaultWindow> windows) {
    rs::FaultConfig cfg;
    cfg.windows = std::move(windows);
    rs::FaultInjector fi(cfg, 100.0, rem::common::Rng(1));
  };
  // Same-kind overlap is a schedule bug, not a "max wins" feature.
  EXPECT_THROW(build({{rs::FaultKind::kSignalingLoss, 10.0, 5.0, 0.5},
                      {rs::FaultKind::kSignalingLoss, 12.0, 8.0, 0.9}}),
               std::invalid_argument);
  // Different kinds may overlap freely.
  EXPECT_NO_THROW(build({{rs::FaultKind::kSignalingLoss, 10.0, 5.0, 0.5},
                         {rs::FaultKind::kPilotOutage, 12.0, 8.0, 2.0}}));
  EXPECT_THROW(build({{rs::FaultKind::kSignalingLoss, -1.0, 5.0, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(build({{rs::FaultKind::kSignalingLoss, 10.0, 0.0, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(build({{rs::FaultKind::kSignalingLoss, 10.0, 5.0, 0.0}}),
               std::invalid_argument);
  // Probability-valued kinds cap at 1; physical magnitudes do not.
  EXPECT_THROW(build({{rs::FaultKind::kSignalingLoss, 10.0, 5.0, 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(build({{rs::FaultKind::kBackhaulLoss, 10.0, 5.0, 1.5}}),
               std::invalid_argument);
  EXPECT_NO_THROW(build({{rs::FaultKind::kBackhaulDelay, 10.0, 5.0, 1.5}}));
  EXPECT_NO_THROW(build({{rs::FaultKind::kCoverageBlackout, 10.0, 5.0,
                          60.0}}));
  // The thrown context names the window and both intervals on overlap.
  try {
    build({{rs::FaultKind::kBackhaulPartition, 10.0, 5.0, 1.0},
           {rs::FaultKind::kBackhaulPartition, 14.0, 5.0, 1.0}});
    FAIL() << "overlapping partitions were accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("backhaul_partition"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overlap"), std::string::npos) << msg;
  }
}

TEST(FaultInjector, RandomScheduleIsDeterministicPerSeed) {
  rs::FaultConfig cfg;
  cfg.random = {{rs::FaultKind::kPilotOutage, 30.0, 2.0, 6.0, 1.0, 4.0},
                {rs::FaultKind::kSignalingLoss, 50.0, 1.0, 3.0, 0.5, 1.0}};
  const double horizon = 2000.0;
  rs::FaultInjector a(cfg, horizon, rem::common::Rng(42));
  rs::FaultInjector b(cfg, horizon, rem::common::Rng(42));
  rs::FaultInjector c(cfg, horizon, rem::common::Rng(43));
  EXPECT_TRUE(same_windows(a.windows(), b.windows()));
  EXPECT_FALSE(same_windows(a.windows(), c.windows()));

  ASSERT_FALSE(a.windows().empty());
  double prev_start = -1.0;
  for (const auto& w : a.windows()) {
    EXPECT_GE(w.start_s, 0.0);
    EXPECT_LT(w.start_s, horizon);
    EXPECT_GE(w.start_s, prev_start);  // sorted by start
    prev_start = w.start_s;
    if (w.kind == rs::FaultKind::kPilotOutage) {
      EXPECT_GE(w.duration_s, 2.0);
      EXPECT_LE(w.duration_s, 6.0);
      EXPECT_GE(w.magnitude, 1.0);
      EXPECT_LE(w.magnitude, 4.0);
    }
  }
}

TEST(FaultInjector, RejectsInvalidRandomSpecs) {
  const auto build = [](rs::RandomFaultSpec spec) {
    rs::FaultConfig cfg;
    cfg.random = {spec};
    rs::FaultInjector fi(cfg, 100.0, rem::common::Rng(1));
  };
  rs::RandomFaultSpec bad_gap;
  bad_gap.mean_gap_s = 0.0;
  EXPECT_THROW(build(bad_gap), std::invalid_argument);
  rs::RandomFaultSpec bad_dur;
  bad_dur.duration_lo_s = 5.0;
  bad_dur.duration_hi_s = 1.0;
  EXPECT_THROW(build(bad_dur), std::invalid_argument);
  rs::RandomFaultSpec bad_mag;
  bad_mag.magnitude_lo = 2.0;
  bad_mag.magnitude_hi = 1.0;
  EXPECT_THROW(build(bad_mag), std::invalid_argument);
}

// ---------- End-to-end determinism under faults ----------

namespace {

rs::FaultConfig mixed_fault_config(double horizon_s) {
  rs::FaultConfig cfg = periodic(rs::FaultKind::kSignalingLoss, 15.0, 60.0,
                                 5.0, 1.0, horizon_s);
  const auto pilot = periodic(rs::FaultKind::kPilotOutage, 35.0, 60.0, 8.0,
                              4.0, horizon_s);
  const auto black = periodic(rs::FaultKind::kCoverageBlackout, 55.0, 60.0,
                              4.0, 60.0, horizon_s);
  cfg.windows.insert(cfg.windows.end(), pilot.windows.begin(),
                     pilot.windows.end());
  cfg.windows.insert(cfg.windows.end(), black.windows.begin(),
                     black.windows.end());
  cfg.random = {{rs::FaultKind::kCommandDuplication, 40.0, 5.0, 20.0, 1.0,
                 1.0}};
  return cfg;
}

/// Beijing-Shanghai at 300 km/h for `duration_s` under `faults`.
rem::trace::Scenario faulted_scenario(const rs::FaultConfig& faults,
                                      double duration_s) {
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, duration_s);
  sc.sim.faults = faults;
  return sc;
}

}  // namespace

TEST(ChaosDeterminism, SameSeedSameFaultsBitIdenticalStats) {
  const auto sc = faulted_scenario(mixed_fault_config(150.0), 150.0);
  rem::phy::LogisticBlerModel bler;
  const auto a = rem::bench::run_seed(sc, 7, true, bler);
  const auto b = rem::bench::run_seed(sc, 7, true, bler);
  // Every stats field, doubles compared with == on purpose: the
  // determinism guarantee is exact replay, not tolerance.
  EXPECT_EQ(rem::testkit::diff_stats(a.legacy, b.legacy), "");
  EXPECT_EQ(rem::testkit::diff_stats(a.rem, b.rem), "");
}

TEST(ChaosDeterminism, ParallelMatchesSerialAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds = {4, 1, 9};
  const auto sc = faulted_scenario(mixed_fault_config(120.0), 120.0);
  const auto serial = rem::bench::run_route(sc, seeds);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto par = rem::bench::run_route(sc, seeds, true, threads);
    EXPECT_EQ(rem::testkit::diff_stats(serial.legacy.total, par.legacy.total),
              "");
    EXPECT_EQ(rem::testkit::diff_stats(serial.rem.total, par.rem.total), "");
  }
}

// ---------- Each fault class moves its counter ----------

namespace {

rem::bench::SeedRunResult run_with(const rs::FaultConfig& faults,
                                   double duration_s = 80.0) {
  rem::phy::LogisticBlerModel bler;
  return rem::bench::run_seed(faulted_scenario(faults, duration_s), 1, true,
                              bler);
}

}  // namespace

TEST(ChaosEffects, BurstLossTriggersReportRetransmissions) {
  const auto r = run_with(
      periodic(rs::FaultKind::kSignalingLoss, 15.0, 60.0, 5.0, 1.0, 80.0));
  EXPECT_GT(r.legacy.report_retransmits + r.rem.report_retransmits, 0);
}

TEST(ChaosEffects, PilotOutageDrivesRemIntoDegradedMode) {
  const auto r = run_with(
      periodic(rs::FaultKind::kPilotOutage, 15.0, 60.0, 8.0, 4.0, 80.0));
  EXPECT_GT(r.rem.degraded_enters, 0);
  EXPECT_GT(r.rem.degraded_time_s, 0.0);
  // Legacy has no cross-band estimator to degrade.
  EXPECT_EQ(r.legacy.degraded_enters, 0);
}

TEST(ChaosEffects, BlackoutCausesCoverageHoleFailures) {
  const auto r = run_with(
      periodic(rs::FaultKind::kCoverageBlackout, 15.0, 60.0, 4.0, 60.0,
               80.0));
  EXPECT_GT(r.legacy.failures + r.rem.failures, 0);
  EXPECT_FALSE(r.legacy.outage_durations_s.empty() &&
               r.rem.outage_durations_s.empty());
  const auto holes = [](const rs::SimStats& s) {
    const auto it = s.failures_by_cause.find(rs::FailureCause::kCoverageHole);
    return it != s.failures_by_cause.end() ? it->second : 0;
  };
  EXPECT_GT(holes(r.legacy) + holes(r.rem), 0);
}

TEST(ChaosEffects, DuplicationProducesDuplicateCommands) {
  const auto r = run_with(periodic(rs::FaultKind::kCommandDuplication, 10.0,
                                   60.0, 25.0, 1.0, 80.0));
  EXPECT_GT(r.legacy.duplicate_commands + r.rem.duplicate_commands, 0);
}

TEST(ChaosEffects, FaultAndDegradedTransitionsAppearInEventLog) {
  // A bare REM run with event recording on (its world draws no policies):
  // the log must show the pilot-outage window opening/closing and REM
  // entering/leaving degraded mode inside it.
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, 80.0);
  // Windows at 15 s and 45 s, both closing well before the 80 s run ends
  // so every fault_start has a matching fault_end in the log.
  sc.sim.faults =
      periodic(rs::FaultKind::kPilotOutage, 15.0, 30.0, 8.0, 4.0, 60.0);
  sc.sim.record_events = true;
  rem::common::Rng rng(1);
  auto cells = rs::make_rail_deployment(sc.deployment, rng);
  auto holes = rs::make_hole_segments(sc.deployment, rng);
  rs::RadioEnv env(cells, sc.propagation, rng.fork(), holes);

  rem::core::RemManager remm(rem::core::RemConfig{}, rng.fork());
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, sc.sim, bler, rng.fork());
  const auto stats = sim.run(remm);

  int fault_starts = 0, fault_ends = 0, enters = 0, exits = 0;
  for (const auto& e : stats.events) {
    switch (e.kind) {
      case rs::EventKind::kFaultStart:
        ++fault_starts;
        EXPECT_EQ(e.target_cell,
                  static_cast<int>(rs::FaultKind::kPilotOutage));
        break;
      case rs::EventKind::kFaultEnd: ++fault_ends; break;
      case rs::EventKind::kDegradedEnter: ++enters; break;
      case rs::EventKind::kDegradedExit: ++exits; break;
      default: break;
    }
  }
  EXPECT_EQ(fault_starts, 2);
  EXPECT_EQ(fault_ends, 2);
  EXPECT_GT(enters, 0);
  EXPECT_GT(exits, 0);
  EXPECT_EQ(stats.degraded_enters, enters);
}
