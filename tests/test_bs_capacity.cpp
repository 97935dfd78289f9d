// BS capacity model unit tests (deterministic slot/queue scheduling, shed
// and flush semantics, config validation) plus simulator-level FSM edges:
// busy-rejects honoring the backoff hint, pivoting to the Theorem-2
// fallback, a bounded retry budget per attempt, queue-full sheds
// classifying as feedback-delay losses, and crash-restart recovery
// (fixed-victim selection, in-flight signaling loss, stale-context
// replies after a stateless restart).
#include "scenario_runner.hpp"
#include "sim/bs_capacity.hpp"
#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rs = rem::sim;

TEST(BsStation, UncontendedJobStartsImmediately) {
  rs::BsStation st(2, 4);
  const auto job = st.submit(10.0, rs::BsJobKind::kPrepAdmission, 0.002);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->submit_s, 10.0);
  EXPECT_EQ(job->start_s, 10.0);
  EXPECT_EQ(job->done_s, 10.002);
  EXPECT_EQ(st.occupancy(10.0), 1);
  EXPECT_EQ(st.waiting(10.0), 0);
  // Completion is handed back exactly once.
  EXPECT_TRUE(st.take_completed(10.001).empty());
  const auto done = st.take_completed(10.002);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].kind, rs::BsJobKind::kPrepAdmission);
  EXPECT_TRUE(st.take_completed(11.0).empty());
  EXPECT_TRUE(st.unfinished_jobs().empty());
  // Two slots take two jobs at once; equal done_s come back in
  // submission order.
  ASSERT_TRUE(st.submit(20.0, rs::BsJobKind::kContextLookup, 0.5));
  ASSERT_TRUE(st.submit(20.0, rs::BsJobKind::kRrcDecision, 0.5));
  const auto tied = st.take_completed(20.5);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied[0].done_s, tied[1].done_s);
  EXPECT_EQ(tied[0].kind, rs::BsJobKind::kContextLookup);
  EXPECT_EQ(tied[1].kind, rs::BsJobKind::kRrcDecision);
}

TEST(BsStation, QueuesBehindBusySlotsAndShedsWhenFull) {
  rs::BsStation st(1, 2);
  // Slot busy until 1.0; two more fit in the queue; the fourth is shed.
  ASSERT_TRUE(st.submit(0.0, rs::BsJobKind::kRrcDecision, 1.0));
  const auto second = st.submit(0.0, rs::BsJobKind::kRrcDecision, 1.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->start_s, 1.0);  // waits for the slot
  EXPECT_EQ(second->done_s, 2.0);
  ASSERT_TRUE(st.submit(0.0, rs::BsJobKind::kContextLookup, 0.5));
  EXPECT_EQ(st.occupancy(0.0), 3);
  EXPECT_EQ(st.waiting(0.0), 2);
  EXPECT_EQ(st.load(0.0), 1.0);  // 3 / (1 slot + 2 queue)
  EXPECT_FALSE(st.submit(0.0, rs::BsJobKind::kPrepAdmission, 0.1));  // shed
  // Completion order follows done_s: 1.0, then 2.0, then 2.5.
  const auto done = st.take_completed(3.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].done_s, 1.0);
  EXPECT_EQ(done[1].done_s, 2.0);
  EXPECT_EQ(done[2].done_s, 2.5);
  EXPECT_EQ(done[2].start_s, 2.0);
  EXPECT_EQ(done[2].kind, rs::BsJobKind::kContextLookup);
}

TEST(BsStation, FlushLosesScheduledJobsAndCountsNonBackground) {
  rs::BsStation st(1, 4);
  ASSERT_TRUE(st.submit(0.0, rs::BsJobKind::kBackground, 0.020));
  ASSERT_TRUE(st.submit(0.0, rs::BsJobKind::kRrcDecision, 0.010));
  ASSERT_TRUE(st.submit(0.0, rs::BsJobKind::kPrepAdmission, 0.002));
  EXPECT_EQ(st.unfinished_jobs().size(), 2u);  // background excluded
  const auto lost = st.flush_jobs();
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].kind, rs::BsJobKind::kRrcDecision);
  EXPECT_EQ(lost[1].kind, rs::BsJobKind::kPrepAdmission);
  EXPECT_EQ(st.occupancy(0.0), 0);
  EXPECT_TRUE(st.unfinished_jobs().empty());
  EXPECT_TRUE(st.take_completed(10.0).empty());
  // The station is usable again after the crash.
  const auto job = st.submit(1.0, rs::BsJobKind::kContextLookup, 0.002);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->start_s, 1.0);
}

TEST(BsCapacityConfig, ValidateNamesTheOffendingField) {
  rs::BsCapacityConfig ok;
  EXPECT_NO_THROW(rs::validate(ok));
  const auto expect_throw_naming = [](rs::BsCapacityConfig cfg,
                                      const std::string& field) {
    try {
      rs::validate(cfg);
      FAIL() << "expected invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  rs::BsCapacityConfig bad = ok;
  bad.slots = 0;
  expect_throw_naming(bad, "slots");
  bad = ok;
  bad.prep_service_s = 0.0;
  expect_throw_naming(bad, "prep_service_s");
  bad = ok;
  bad.ctx_service_s = -1.0;
  expect_throw_naming(bad, "ctx_service_s");
  bad = ok;
  bad.background_service_s = 0.0;
  expect_throw_naming(bad, "background_service_s");
  bad = ok;
  bad.admission_load_threshold = 0.0;
  expect_throw_naming(bad, "admission_load_threshold");
  bad = ok;
  bad.admission_load_threshold = 1.5;
  expect_throw_naming(bad, "admission_load_threshold");
  bad = ok;
  bad.reject_backoff_hint_s = -0.1;
  expect_throw_naming(bad, "reject_backoff_hint_s");
  bad = ok;
  bad.admission_max_retries = -1;
  expect_throw_naming(bad, "admission_max_retries");
}

// ---------- Simulator-level FSM edges ----------

namespace {

/// Periodic scripted windows of one kind over [first_s, horizon_s).
rs::FaultConfig periodic(rs::FaultKind kind, double first_s, double period_s,
                         double duration_s, double magnitude,
                         double horizon_s) {
  rs::FaultConfig cfg;
  for (double t = first_s; t < horizon_s; t += period_s)
    cfg.windows.push_back({kind, t, duration_s, magnitude});
  return cfg;
}

rem::bench::SeedRunResult run_faulted(const rs::FaultConfig& faults,
                                      bool run_rem,
                                      double duration_s = 120.0) {
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, duration_s);
  sc.sim.faults = faults;
  sc.sim.record_events = true;
  return rem::bench::run_seed(sc, 1, run_rem, bler);
}

int count_events(const rs::SimStats& s, rs::EventKind kind) {
  int n = 0;
  for (const auto& e : s.events)
    if (e.kind == kind) ++n;
  return n;
}

}  // namespace

TEST(AdmissionFsmEdges, BusyRejectBacksOffHonoringTheHint) {
  // Saturate every station for most of the run: REM's preparations get
  // busy-rejected, and each backoff retry must wait out the carried hint
  // before the next HANDOVER REQUEST goes on the wire.
  const auto r = run_faulted(
      periodic(rs::FaultKind::kBsOverload, 10.0, 1e9, 100.0, 1.0, 120.0),
      /*run_rem=*/true);
  EXPECT_GT(r.rem.admission_rejects, 0);
  EXPECT_GT(r.rem.admission_backoff_retries, 0);
  EXPECT_EQ(count_events(r.rem, rs::EventKind::kAdmissionReject),
            r.rem.admission_rejects);
  EXPECT_EQ(count_events(r.rem, rs::EventKind::kAdmissionRetry),
            r.rem.admission_backoff_retries);
  const double hint = rs::BsCapacityConfig{}.reject_backoff_hint_s;
  int checked = 0;
  for (std::size_t i = 0; i < r.rem.events.size(); ++i) {
    if (r.rem.events[i].kind != rs::EventKind::kAdmissionRetry) continue;
    for (std::size_t j = i + 1; j < r.rem.events.size(); ++j) {
      if (r.rem.events[j].kind == rs::EventKind::kPrepRequest) {
        EXPECT_GE(r.rem.events[j].t_s - r.rem.events[i].t_s, hint - 1e-9);
        ++checked;
        break;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(AdmissionFsmEdges, BusyRejectPivotsToFallbackWhenAvailable) {
  // Across repeated overload windows some busy-rejected attempts carry a
  // fresh Theorem-2 fallback target; those must pivot instead of waiting.
  const auto r = run_faulted(
      periodic(rs::FaultKind::kBsOverload, 15.0, 40.0, 12.0, 1.0, 240.0),
      /*run_rem=*/true, 240.0);
  EXPECT_GT(r.rem.admission_rejects, 0);
  // Every busy reject resolved into exactly one FSM action.
  EXPECT_EQ(r.rem.admission_rejects,
            r.rem.admission_backoff_retries +
                count_events(r.rem, rs::EventKind::kPrepFallback) +
                count_events(r.rem, rs::EventKind::kPrepFailed));
}

TEST(AdmissionFsmEdges, RetryBudgetBoundsEachAttemptThenFailsPrep) {
  // A budget of two hint-spaced retries under saturation: no attempt (the
  // events from one measurement trigger to the next) waits out a third
  // busy reject, and some attempt spends both and fails its preparation.
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, 120.0);
  sc.sim.faults =
      periodic(rs::FaultKind::kBsOverload, 10.0, 1e9, 100.0, 1.0, 120.0);
  sc.sim.bs_capacity.admission_max_retries = 2;
  sc.sim.record_events = true;
  const auto r = rem::bench::run_seed(sc, 1, /*run_rem=*/true, bler);
  int retries = 0;
  int spent_then_failed = 0;
  for (const auto& e : r.rem.events) {
    if (e.kind == rs::EventKind::kMeasurementTriggered) retries = 0;
    if (e.kind == rs::EventKind::kAdmissionRetry) {
      ++retries;
      EXPECT_LE(retries, 2) << "attempt retried again at t=" << e.t_s;
    }
    if (e.kind == rs::EventKind::kPrepFailed && retries == 2)
      ++spent_then_failed;
  }
  EXPECT_GT(r.rem.admission_backoff_retries, 0);
  EXPECT_GT(spent_then_failed, 0);
}

TEST(AdmissionFsmEdges, LegacyDecisionShedClassifiesAsFeedbackDelayLoss) {
  // Sustained full-capacity overload: legacy's network-side decision jobs
  // shed on the bounded queue, the serving link eventually dies with the
  // network never having acted on the report, and the RLF classifies as a
  // feedback-delay loss (Table 2), not a generic failure.
  const auto r = run_faulted(
      periodic(rs::FaultKind::kBsOverload, 10.0, 1e9, 105.0, 1.0, 120.0),
      /*run_rem=*/false);
  EXPECT_GT(r.legacy.bs_queue_shed, 0);
  EXPECT_EQ(count_events(r.legacy, rs::EventKind::kBsQueueShed),
            r.legacy.bs_queue_shed);
  const auto it = r.legacy.failures_by_cause.find(
      rs::FailureCause::kFeedbackDelayLoss);
  ASSERT_NE(it, r.legacy.failures_by_cause.end());
  EXPECT_GT(it->second, 0);
}

TEST(CrashRestartEdges, MagnitudeSelectsTheFixedVictimCell) {
  // magnitude = 2 + cell pins the victim; every crash/restart event in
  // the log must name that cell.
  rs::FaultConfig faults;
  faults.windows = {{rs::FaultKind::kBsCrashRestart, 30.0, 5.0, 2.0 + 3.0}};
  const auto r = run_faulted(faults, /*run_rem=*/false, 60.0);
  EXPECT_EQ(r.legacy.bs_crashes, 1);
  for (const auto& e : r.legacy.events) {
    if (e.kind == rs::EventKind::kBsCrash ||
        e.kind == rs::EventKind::kBsRestart) {
      EXPECT_EQ(e.target_cell, 3);
    }
  }
  EXPECT_EQ(count_events(r.legacy, rs::EventKind::kBsRestart), 1);
}

TEST(CrashRestartEdges, ServingCrashDropsInFlightSignalingAndRecovers) {
  // magnitude 1 kills the serving BS at window open: signaling in flight
  // to or from the victim is lost (never silently re-routed), the UE
  // re-establishes, and the run ends with zero invariant violations
  // (checked inside run_seed).
  const auto r = run_faulted(
      periodic(rs::FaultKind::kBsCrashRestart, 20.0, 60.0, 5.0, 1.0, 120.0),
      /*run_rem=*/true);
  EXPECT_EQ(r.rem.bs_crashes, 2);
  EXPECT_EQ(r.legacy.bs_crashes, 2);
  EXPECT_GT(r.legacy.bs_crash_dropped_msgs + r.rem.bs_crash_dropped_msgs, 0);
  // Each crash window closed with a restart before the horizon.
  EXPECT_EQ(count_events(r.rem, rs::EventKind::kBsRestart), 2);
}

TEST(CrashRestartEdges, ShortCrashYieldsStaleContextAfterRestart) {
  // A short crash window: the UE's RLF and outage camping outlive the
  // window, so the context fetch reaches the victim *after* it restarted
  // stateless — the reply must be an explicit stale-context indication,
  // which degrades (delays) the re-establishment instead of failing it
  // silently.
  const auto r = run_faulted(
      periodic(rs::FaultKind::kBsCrashRestart, 20.0, 30.0, 1.5, 1.0, 140.0),
      /*run_rem=*/true, 140.0);
  EXPECT_GT(r.legacy.stale_context_responses + r.rem.stale_context_responses,
            0);
  EXPECT_EQ(count_events(r.legacy, rs::EventKind::kContextStale),
            r.legacy.stale_context_responses);
  EXPECT_EQ(count_events(r.rem, rs::EventKind::kContextStale),
            r.rem.stale_context_responses);
}
