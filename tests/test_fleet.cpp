// Fleet-scale verification layer (label: fleet): the multi-UE engine is
// pinned against the single-UE simulator bit-for-bit and across thread
// counts.
//
//  - a fleet of one reproduces a single-UE Simulator::run exactly (same
//    RNG derivation, every stats field, same event log) for both
//    managers, under mixed faults and under a cascade storm with the
//    breaker / load-ad / jitter stack armed, and run() announces its one
//    UE to the observer as a fleet does;
//  - a batch of fleet seeds merged in seed order is bit-identical at 1, 2,
//    and 8 worker threads;
//  - per-UE stats fold into the fleet aggregate under the documented
//    rules, and fleet_invariant_report stays clean on real runs;
//  - a 100-UE fleet completes under one InvariantChecker per UE;
//  - the managers' candidate-metric declarations change no output: each
//    fleet equals the one whose managers declare every metric read.
#include "fleet_runner.hpp"

#include "common/parallel.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using rem::bench::run_fleet_scenario;
using rem::testkit::diff_stats;
using rem::testkit::golden_scenario;

/// Single-UE run over make_world's world with the fleet runner's fork
/// order (manager master stream before the simulation stream), so its
/// output is the reference a fleet of one must reproduce bit-for-bit.
rem::sim::SimStats run_single(const rem::trace::Scenario& sc,
                              std::uint64_t seed, bool use_rem) {
  namespace core = rem::core;
  rem::common::Rng rng(seed);
  const auto world = rem::trace::make_world(sc, rng);
  rem::common::Rng mgr_rng = rng.fork();
  rem::common::Rng sim_rng = rng.fork();
  rem::phy::LogisticBlerModel bler;
  rem::sim::Simulator s(world.env, sc.sim, bler, std::move(sim_rng));
  if (use_rem) {
    core::RemManager m(core::RemConfig{}, mgr_rng.fork());
    return s.run(m);
  }
  core::LegacyManager m(world.legacy);
  return s.run(m);
}

struct FleetOfOneCase {
  std::string name;
  rem::trace::Scenario sc;
  std::uint64_t seed;
};

/// The mixed-fault preset, and the golden corpus's cascade storm with the
/// resilience stack armed on single-slot stations, so admission
/// busy-rejects drive REM's breakers through trip, probe, and close.
std::vector<FleetOfOneCase> fleet_of_one_cases() {
  return {
      {"mixed",
       golden_scenario(rem::trace::Route::kBeijingTaiyuan, 250.0, 60.0,
                       "mixed"),
       21},
      {"cascade_storm",
       golden_scenario(rem::trace::Route::kBeijingShanghai, 300.0, 120.0,
                       "cascade_storm"),
       18},
  };
}

TEST(Fleet, FleetOfOneReproducesSingleUeRunExactly) {
  for (auto c : fleet_of_one_cases()) {
    SCOPED_TRACE(c.name);
    c.sc.sim.fleet_size = 1;
    for (bool use_rem : {false, true}) {
      SCOPED_TRACE(use_rem ? "rem" : "legacy");
      const auto single = run_single(c.sc, c.seed, use_rem);
      const auto fleet = run_fleet_scenario(
          c.sc, c.seed, rem::phy::LogisticBlerModel{}, use_rem);
      ASSERT_EQ(fleet.per_ue.size(), 1u);
      // The bare single run carries no checker and reports 0 violations;
      // the fleet's checker must agree.
      EXPECT_EQ(diff_stats(fleet.per_ue[0], single), "");
      // A one-UE aggregate is that UE's stats verbatim.
      EXPECT_EQ(diff_stats(fleet.aggregate, fleet.per_ue[0]), "");
      // The storm must actually cycle REM's breakers, so the comparison
      // pins a breaker timeline across both entry points (legacy trips
      // are rare on a single UE; only its bit-identity is asserted).
      if (use_rem && c.name == "cascade_storm") {
        EXPECT_GT(single.breaker_trips, 0);
      }
    }
  }
}

/// Counts observer calls: every on_ue id in call order, and the callbacks
/// that arrived before the first on_ue.
struct UeAnnouncementRecorder final : rem::sim::SimObserver {
  std::vector<int> ues;
  std::size_t unattributed = 0;
  std::size_t events = 0, ticks = 0, run_ends = 0;

  void on_ue(int ue) override { ues.push_back(ue); }
  void on_event(const rem::sim::SignalingEvent&) override {
    unattributed += ues.empty();
    ++events;
  }
  void on_tick(const rem::sim::TickView&) override {
    unattributed += ues.empty();
    ++ticks;
  }
  void on_run_end(rem::sim::SimStats&) override {
    unattributed += ues.empty();
    ++run_ends;
  }
};

TEST(Fleet, SingleUeRunAnnouncesUeZeroOnceBeforeItsFirstCallback) {
  // run() is a fleet of one, so its observer sees the fleet protocol:
  // on_ue(0) exactly once, before the first event and tick, and no other
  // id.
  auto c = fleet_of_one_cases().front();
  UeAnnouncementRecorder rec;
  c.sc.sim.observer = &rec;
  run_single(c.sc, c.seed, /*use_rem=*/false);
  EXPECT_EQ(rec.ues, std::vector<int>{0});
  EXPECT_EQ(rec.unattributed, 0u);
  EXPECT_GT(rec.events, 0u);
  EXPECT_GT(rec.ticks, 0u);
  EXPECT_EQ(rec.run_ends, 1u);
}

/// Run one fleet per seed on `threads` workers; results come back in seed
/// order whatever the interleaving.
std::vector<rem::sim::FleetResult> run_fleet_batch(
    const std::vector<std::uint64_t>& seeds, std::size_t threads,
    const rem::trace::Scenario& sc) {
  std::vector<rem::sim::FleetResult> out(seeds.size());
  rem::phy::LogisticBlerModel bler;
  rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
    out[i] = run_fleet_scenario(sc, seeds[i], bler, /*use_rem=*/true);
  });
  return out;
}

TEST(Fleet, BatchBitIdenticalAcrossOneTwoEightThreads) {
  auto sc = golden_scenario(rem::trace::Route::kBeijingTaiyuan, 250.0, 30.0,
                            "bs_overload_shed");
  sc.sim.fleet_size = 6;
  const std::vector<std::uint64_t> seeds = {31, 32, 33, 34, 35, 36};
  const auto at1 = run_fleet_batch(seeds, 1, sc);
  const auto at2 = run_fleet_batch(seeds, 2, sc);
  const auto at8 = run_fleet_batch(seeds, 8, sc);
  ASSERT_EQ(at1.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    ASSERT_EQ(at1[i].per_ue.size(), 6u);
    ASSERT_EQ(at2[i].per_ue.size(), at1[i].per_ue.size());
    ASSERT_EQ(at8[i].per_ue.size(), at1[i].per_ue.size());
    for (std::size_t k = 0; k < at1[i].per_ue.size(); ++k) {
      SCOPED_TRACE("ue " + std::to_string(k));
      EXPECT_EQ(diff_stats(at2[i].per_ue[k], at1[i].per_ue[k]), "");
      EXPECT_EQ(diff_stats(at8[i].per_ue[k], at1[i].per_ue[k]), "");
    }
    EXPECT_EQ(diff_stats(at2[i].aggregate, at1[i].aggregate), "");
    EXPECT_EQ(diff_stats(at8[i].aggregate, at1[i].aggregate), "");
  }
}

TEST(Fleet, PerUeStatsFoldIntoAggregate) {
  auto sc = golden_scenario(rem::trace::Route::kBeijingShanghai, 300.0, 40.0,
                            "backhaul_partition");
  sc.sim.fleet_size = 8;
  const auto r = run_fleet_scenario(sc, 41, rem::phy::LogisticBlerModel{},
                                    /*use_rem=*/true);
  ASSERT_EQ(r.per_ue.size(), 8u);
  // Mixed per-UE parameters actually took effect: UEs do not all ride the
  // same trajectory, so their tick-by-tick event streams differ.
  bool any_differs = false;
  for (std::size_t k = 1; k < r.per_ue.size(); ++k)
    any_differs = any_differs ||
                  rem::testkit::hash_event_log(r.per_ue[k].events) !=
                      rem::testkit::hash_event_log(r.per_ue[0].events);
  EXPECT_TRUE(any_differs);
  int handovers = 0, failures = 0, prep_requests = 0;
  std::size_t events = 0;
  for (int k = 0; k < 8; ++k) {
    const auto& s = r.per_ue[static_cast<std::size_t>(k)];
    handovers += s.handovers;
    failures += s.failures;
    prep_requests += s.prep_requests;
    events += s.events.size();
    for (const auto& e : s.events) EXPECT_EQ(e.ue, k);
  }
  EXPECT_EQ(r.aggregate.handovers, handovers);
  EXPECT_EQ(r.aggregate.failures, failures);
  EXPECT_EQ(r.aggregate.prep_requests, prep_requests);
  EXPECT_EQ(r.aggregate.events.size(), events);
  EXPECT_GT(handovers, 0);
  // The merged log is time-sorted: no cross-UE timestamp regression.
  for (std::size_t i = 1; i < r.aggregate.events.size(); ++i)
    ASSERT_GE(r.aggregate.events[i].t_s, r.aggregate.events[i - 1].t_s);
  // The runner already threw on violations; double-check the report API.
  EXPECT_TRUE(rem::testkit::fleet_invariant_report(r).empty());
}

// The ISSUE acceptance case: a 100-UE fleet completes deterministically
// under one InvariantChecker per UE, and repeating the run (serially or on
// a pool) reproduces it bit-for-bit.
TEST(Fleet, HundredUeFleetCompletesUnderChecker) {
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, 12.0);
  sc.sim.faults = rem::testkit::golden_fault_preset("mixed", 12.0);
  sc.sim.fleet_size = 100;
  const auto run_once = [&] {
    return run_fleet_scenario(sc, 51, rem::phy::LogisticBlerModel{},
                              /*use_rem=*/true);
  };
  const auto a = run_once();
  ASSERT_EQ(a.per_ue.size(), 100u);
  for (const auto& s : a.per_ue) EXPECT_GT(s.sim_time_s, 11.0);
  EXPECT_EQ(a.aggregate.invariant_violations, 0);
  // Two more copies on a 2-thread pool: all three runs identical.
  std::vector<rem::sim::FleetResult> again(2);
  rem::common::parallel_for(again.size(), 2,
                            [&](std::size_t i) { again[i] = run_once(); });
  for (const auto& b : again) {
    ASSERT_EQ(b.per_ue.size(), a.per_ue.size());
    EXPECT_EQ(diff_stats(b.per_ue.front(), a.per_ue.front()), "");
    EXPECT_EQ(diff_stats(b.per_ue.back(), a.per_ue.back()), "");
    EXPECT_EQ(diff_stats(b.aggregate, a.aggregate), "");
  }
}

}  // namespace

/// Forwards every call to `inner` except candidate_metrics, which keeps
/// the base class's "every metric" default.
class ReadsEveryMetric final : public rem::sim::MobilityManager {
 public:
  explicit ReadsEveryMetric(std::unique_ptr<rem::sim::MobilityManager> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  rem::phy::Waveform waveform() const override { return inner_->waveform(); }
  std::optional<rem::sim::HandoverDecision> update(
      double t, const rem::sim::ServingState& serving,
      const std::vector<rem::sim::Observation>& neighbors) override {
    return inner_->update(t, serving, neighbors);
  }
  std::set<std::size_t> visible_cells() const override {
    return inner_->visible_cells();
  }
  void on_serving_changed(double t, std::size_t new_idx) override {
    inner_->on_serving_changed(t, new_idx);
  }
  bool degraded_mode() const override { return inner_->degraded_mode(); }
  bool client_driven() const override { return inner_->client_driven(); }

 private:
  std::unique_ptr<rem::sim::MobilityManager> inner_;
};

/// A fleet over make_world's world in the fleet runner's fork order, its
/// managers wrapped in ReadsEveryMetric when `every_metric`.
rem::sim::FleetResult run_declared_fleet(const rem::trace::Scenario& sc,
                                         std::uint64_t seed, bool use_rem,
                                         bool every_metric) {
  rem::common::Rng rng(seed);
  const auto world = rem::trace::make_world(sc, rng);
  rem::common::Rng mgr_rng = rng.fork();
  rem::common::Rng sim_rng = rng.fork();
  rem::phy::LogisticBlerModel bler;
  rem::sim::Simulator s(world.env, sc.sim, bler, std::move(sim_rng));
  return s.run_fleet([&](int) -> std::unique_ptr<rem::sim::MobilityManager> {
    std::unique_ptr<rem::sim::MobilityManager> m;
    if (use_rem)
      m = std::make_unique<rem::core::RemManager>(rem::core::RemConfig{},
                                                  mgr_rng.fork());
    else
      m = std::make_unique<rem::core::LegacyManager>(world.legacy);
    if (every_metric) m = std::make_unique<ReadsEveryMetric>(std::move(m));
    return m;
  });
}

TEST(Fleet, MetricDeclarationsChangeNoOutput) {
  // The declarations under test skip work: REM skips the instantaneous
  // metric while pilots are fresh, legacy the delay-Doppler one.
  const rem::core::RemManager rem_mgr(rem::core::RemConfig{},
                                      rem::common::Rng(1));
  EXPECT_FALSE(rem_mgr.candidate_metrics(false).instant);
  EXPECT_TRUE(rem_mgr.candidate_metrics(true).instant);
  EXPECT_FALSE(rem::core::LegacyManager(rem::core::LegacyConfig{})
                   .candidate_metrics(false)
                   .delay_doppler);

  auto fault_free = golden_scenario(rem::trace::Route::kBeijingTaiyuan,
                                    300.0, 40.0, "none");
  // A pilot outage long enough to push REM into degraded mode, where it
  // reads the instantaneous metric.
  auto pilot_outage = fault_free;
  pilot_outage.sim.faults.windows = {
      {rem::sim::FaultKind::kPilotOutage, 10.0, 4.0, 4.0}};
  for (auto* sc : {&fault_free, &pilot_outage}) {
    const bool outage = sc == &pilot_outage;
    SCOPED_TRACE(outage ? "pilot outage" : "fault-free");
    sc->sim.fleet_size = 4;
    rem::testkit::FleetGoldenCase meta;
    meta.name = "metric_declarations";
    meta.fleet_size = sc->sim.fleet_size;
    std::string digests[2];
    for (const bool every_metric : {false, true}) {
      const auto legacy = run_declared_fleet(*sc, 61, false, every_metric);
      const auto rem = run_declared_fleet(*sc, 61, true, every_metric);
      EXPECT_GT(legacy.aggregate.handovers, 0);
      EXPECT_GT(rem.aggregate.handovers, 0);
      if (outage) {
        EXPECT_GT(rem.aggregate.degraded_enters, 0);
      }
      std::ostringstream os;
      rem::testkit::write_digest_json(
          rem::testkit::make_fleet_digest(meta, legacy, rem), os);
      digests[every_metric] = os.str();
    }
    EXPECT_EQ(digests[0], digests[1]);
  }
}
