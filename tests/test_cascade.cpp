// Cascade-resilience tests (satellite of the correlated-fault PR): the
// per-target circuit breaker FSM at unit level — trip after *exactly* K
// consecutive failures, the half-open probe's success and failure paths,
// pure-arithmetic cool-down deadlines — plus simulator-level pins: breaker
// events agree with stats counters and respect the cool-down under a
// cascade storm, and storm runs merged in seed order are bit-identical at
// 1, 2, and 8 worker threads. test_fleet.cpp pins the same storm's breaker
// timeline across run() and a fleet of one.
#include "fleet_runner.hpp"
#include "sim/circuit_breaker.hpp"

#include "common/parallel.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace sim = rem::sim;
using rem::bench::run_fleet_scenario;
using rem::testkit::golden_scenario;

// ---------- Breaker FSM unit level ----------

TEST(CircuitBreaker, TripsAfterExactlyKConsecutiveFailures) {
  sim::CircuitBreaker br(3, 2.0);
  // K-1 failures: still closed, still admitting preparations.
  EXPECT_FALSE(br.record_failure(1.0));
  EXPECT_FALSE(br.record_failure(2.0));
  EXPECT_EQ(br.consecutive_failures(), 2);
  EXPECT_EQ(br.state(), sim::BreakerState::kClosed);
  EXPECT_TRUE(br.allow(2.5));
  // The K-th consecutive failure trips — record_failure reports it.
  EXPECT_TRUE(br.record_failure(3.0));
  EXPECT_EQ(br.state(), sim::BreakerState::kOpen);
  EXPECT_FALSE(br.allow(3.5));
  EXPECT_TRUE(br.refuses(3.5));
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveStreak) {
  sim::CircuitBreaker br(2, 2.0);
  EXPECT_FALSE(br.record_failure(1.0));
  EXPECT_FALSE(br.record_success());  // closed: nothing to close
  EXPECT_EQ(br.consecutive_failures(), 0);
  // The streak restarted, so one more failure is not enough again.
  EXPECT_FALSE(br.record_failure(2.0));
  EXPECT_TRUE(br.record_failure(3.0));
  EXPECT_EQ(br.state(), sim::BreakerState::kOpen);
}

TEST(CircuitBreaker, OpenAdmitsExactlyOneProbeAfterCooldown) {
  sim::CircuitBreaker br(1, 2.0);
  EXPECT_TRUE(br.record_failure(10.0));
  // Refused for the whole cool-down, including the last instant before it.
  EXPECT_FALSE(br.allow(10.0));
  EXPECT_FALSE(br.allow(11.999));
  // At the deadline: half-open, the caller becomes the probe...
  EXPECT_TRUE(br.allow(12.0));
  EXPECT_EQ(br.state(), sim::BreakerState::kHalfOpen);
  EXPECT_TRUE(br.probe_in_flight());
  EXPECT_TRUE(br.engaged());
  EXPECT_FALSE(br.refuses(12.0));  // probe-eligible, not refused
  // ...and nobody else gets in until the probe resolves.
  EXPECT_FALSE(br.allow(12.5));
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  sim::CircuitBreaker br(1, 1.5);
  EXPECT_TRUE(br.record_failure(5.0));
  EXPECT_TRUE(br.allow(6.5));
  // The probe's ack closes the breaker and record_success reports it.
  EXPECT_TRUE(br.record_success());
  EXPECT_EQ(br.state(), sim::BreakerState::kClosed);
  EXPECT_FALSE(br.probe_in_flight());
  EXPECT_TRUE(br.allow(6.6));
  EXPECT_FALSE(br.engaged());
}

TEST(CircuitBreaker, HalfOpenProbeFailureRetripsWithFreshCooldown) {
  sim::CircuitBreaker br(3, 2.0);
  EXPECT_FALSE(br.record_failure(0.0));
  EXPECT_FALSE(br.record_failure(0.5));
  EXPECT_TRUE(br.record_failure(1.0));  // K-th: open, deadline 3.0
  EXPECT_TRUE(br.allow(3.0));           // probe
  // A single probe failure re-trips immediately — no K-streak in half-open
  // — and the cool-down restarts from the failure instant.
  EXPECT_TRUE(br.record_failure(3.4));
  EXPECT_EQ(br.state(), sim::BreakerState::kOpen);
  EXPECT_EQ(br.reopen_at_s(), 5.4);
  EXPECT_FALSE(br.allow(5.3));
  EXPECT_TRUE(br.allow(5.4));  // next probe
}

TEST(CircuitBreaker, DisabledThresholdNeverLeavesClosed) {
  sim::CircuitBreaker br(0, 2.0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(br.record_failure(i));
  EXPECT_EQ(br.state(), sim::BreakerState::kClosed);
  EXPECT_TRUE(br.allow(100.0));
  EXPECT_FALSE(br.refuses(100.0));
  // Default-constructed breakers are disabled too.
  sim::CircuitBreaker off;
  EXPECT_FALSE(off.record_failure(1.0));
  EXPECT_TRUE(off.allow(1.0));
}

TEST(CircuitBreaker, CooldownDeadlineIsExactArithmetic) {
  // The deadline is now + cooldown in exact double arithmetic — no clock
  // reads, no rounding — so breaker timelines replay bit-identically.
  for (double t : {0.0, 17.25, 123.456}) {
    sim::CircuitBreaker br(1, 1.5);
    EXPECT_TRUE(br.record_failure(t));
    EXPECT_EQ(br.reopen_at_s(), t + 1.5);
    EXPECT_FALSE(br.allow(t + 1.5 - 1e-12));
    EXPECT_TRUE(br.allow(t + 1.5));
  }
  // Negative cool-downs clamp to zero: trip, then immediately probe-able.
  sim::CircuitBreaker clamp(1, -3.0);
  EXPECT_TRUE(clamp.record_failure(2.0));
  EXPECT_EQ(clamp.reopen_at_s(), 2.0);
  EXPECT_TRUE(clamp.allow(2.0));
}

// ---------- Simulator level ----------

int count_events(const sim::EventLog& events, sim::EventKind kind) {
  int n = 0;
  for (const auto& e : events)
    if (e.kind == kind) ++n;
  return n;
}

TEST(CascadeSim, BreakerEventsAgreeWithCountersAndCooldown) {
  // 120 s: long enough for a tripped-but-alive cell to stay in candidate
  // range at 300 km/h, so breaker_skips accrues (at 60 s every tripped
  // target is a crashed cell, which candidate selection excludes anyway).
  // The golden corpus's cascade storm: single-slot stations make admission
  // busy-rejects drive the breakers through trip, probe and close.
  auto sc = golden_scenario(rem::trace::Route::kBeijingShanghai, 300.0, 120.0,
                            "cascade_storm");
  sc.sim.fleet_size = 6;
  const auto r = run_fleet_scenario(sc, 18, rem::phy::LogisticBlerModel{},
                                    /*use_rem=*/true);
  const auto& agg = r.aggregate;
  ASSERT_GT(agg.breaker_trips, 0);
  ASSERT_GT(agg.breaker_probes, 0);
  // Stats counters and the event log tell the same story.
  EXPECT_EQ(count_events(agg.events, sim::EventKind::kBreakerTrip),
            agg.breaker_trips);
  EXPECT_EQ(count_events(agg.events, sim::EventKind::kBreakerProbe),
            agg.breaker_probes);
  EXPECT_EQ(count_events(agg.events, sim::EventKind::kBreakerClose),
            agg.breaker_closes);
  // FSM accounting: every probe follows a trip (one probe per cool-down),
  // every close resolves a probe.
  EXPECT_LE(agg.breaker_probes, agg.breaker_trips);
  EXPECT_LE(agg.breaker_closes, agg.breaker_probes);
  // Each probe waited out the full cool-down after the most recent trip of
  // the same UE toward the same target.
  int checked = 0;
  for (std::size_t i = 0; i < agg.events.size(); ++i) {
    const auto& probe = agg.events[i];
    if (probe.kind != sim::EventKind::kBreakerProbe) continue;
    double last_trip = -1.0;
    for (std::size_t j = 0; j < i; ++j) {
      const auto& e = agg.events[j];
      if (e.kind == sim::EventKind::kBreakerTrip && e.ue == probe.ue &&
          e.target_cell == probe.target_cell)
        last_trip = e.t_s;
    }
    ASSERT_GE(last_trip, 0.0) << "probe without a preceding trip";
    EXPECT_GE(probe.t_s - last_trip, sc.sim.breaker_cooldown_s - 1e-9);
    ++checked;
  }
  EXPECT_EQ(checked, agg.breaker_probes);
  // The storm actually stormed: cascade jobs landed and breakers hid
  // tripped targets from candidate selection at least once.
  EXPECT_GT(agg.cascade_activations, 0);
  EXPECT_GT(agg.cascade_jobs_injected, 0);
  EXPECT_GT(agg.breaker_skips, 0);
}

TEST(CascadeSim, StormRunsBitIdenticalAcrossOneTwoEightThreads) {
  auto sc = golden_scenario(rem::trace::Route::kBeijingTaiyuan, 250.0, 40.0,
                            "cascade_storm");
  sc.sim.fleet_size = 4;
  const std::vector<std::uint64_t> seeds = {61, 62, 63, 64, 65, 66};
  const auto batch = [&](std::size_t threads) {
    std::vector<sim::FleetResult> out(seeds.size());
    rem::phy::LogisticBlerModel bler;
    rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
      out[i] = run_fleet_scenario(sc, seeds[i], bler, /*use_rem=*/true);
    });
    return out;
  };
  const auto at1 = batch(1);
  const auto at2 = batch(2);
  const auto at8 = batch(8);
  int trips = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    EXPECT_EQ(rem::testkit::diff_stats(at2[i].aggregate, at1[i].aggregate),
              "");
    EXPECT_EQ(rem::testkit::diff_stats(at8[i].aggregate, at1[i].aggregate),
              "");
    for (std::size_t k = 0; k < at1[i].per_ue.size(); ++k) {
      EXPECT_EQ(rem::testkit::diff_stats(at2[i].per_ue[k], at1[i].per_ue[k]),
                "");
      EXPECT_EQ(rem::testkit::diff_stats(at8[i].per_ue[k], at1[i].per_ue[k]),
                "");
    }
    trips += at1[i].aggregate.breaker_trips;
  }
  // Cool-down determinism is only proven if breakers actually cycled.
  EXPECT_GT(trips, 0);
}

}  // namespace
