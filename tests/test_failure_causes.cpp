// Deterministic pinning of the Table 2 failure taxonomy: tiny
// zero-randomness deployments (all shadowing/fading sigmas zeroed, so
// RSRP is pure path loss) plus a scripted manager steer the simulator
// into each FailureCause exactly once.
//
// Geometry used throughout: tx 46 dBm, ref loss 34 dB, exponent 3.5,
// carrier 2 GHz (no frequency term), noise floor -101 dBm, so
//   rsrp(d) = 12 - 35 log10(d),  snr = rsrp + 101.
// SNR crosses Qout (-7 dB -> rsrp -108 dBm) at d ~ 2683 m; at 300 km/h
// (83.3 m/s) that is t ~ 32.2 s, with the T310-armed RLF landing ~0.5 s
// later.
#include "sim/simulator.hpp"
#include "testkit/invariants.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

namespace rs = rem::sim;

namespace {

rs::PropagationConfig deterministic_propagation() {
  rs::PropagationConfig pc;
  pc.shadowing_sigma_db = 0.0;
  pc.per_cell_shadow_sigma_db = 0.0;
  pc.fading_sigma_db = 0.0;
  pc.dd_residual_sigma_db = 0.0;
  return pc;
}

rs::Cell make_cell(int idx, double site_pos_m) {
  rs::Cell c;
  c.id = {idx, idx, 1825};
  c.site_pos_m = site_pos_m;
  c.site_offset_m = 50.0;
  c.carrier_hz = 2.0e9;
  return c;
}

/// Fires one scripted handover decision at `fire_at_s` (never, if
/// negative), naming `fallback` as the decision's fallback target (-1 =
/// none); reports a fixed visible-cell set for classification.
class ScriptedManager final : public rs::MobilityManager {
 public:
  ScriptedManager(std::set<std::size_t> visible, double fire_at_s = -1.0,
                  std::size_t target = 0, int fallback = -1)
      : visible_(std::move(visible)), fire_at_s_(fire_at_s),
        target_(target), fallback_(fallback) {}

  std::string name() const override { return "scripted"; }
  rem::phy::Waveform waveform() const override {
    return rem::phy::Waveform::kOTFS;
  }
  std::optional<rs::HandoverDecision> update(
      double t, const rs::ServingState&,
      const std::vector<rs::Observation>&) override {
    if (fire_at_s_ >= 0.0 && !fired_ && t >= fire_at_s_) {
      fired_ = true;
      return rs::HandoverDecision{target_, 0.0, fallback_};
    }
    return std::nullopt;
  }
  std::set<std::size_t> visible_cells() const override { return visible_; }
  void on_serving_changed(double, std::size_t idx) override {
    serving_ = idx;
  }
  std::size_t serving() const { return serving_; }

 private:
  std::set<std::size_t> visible_;
  double fire_at_s_;
  std::size_t target_;
  int fallback_;
  bool fired_ = false;
  std::size_t serving_ = 0;
};

int cause_count(const rs::SimStats& s, rs::FailureCause c) {
  const auto it = s.failures_by_cause.find(c);
  return it != s.failures_by_cause.end() ? it->second : 0;
}

rs::SimConfig base_config(double duration_s) {
  rs::SimConfig sc;
  sc.speed_kmh = 300.0;
  sc.duration_s = duration_s;
  // These pins rely on millisecond-exact command timing against scripted
  // fault windows; run the direct signaling path so the jittered backhaul
  // prep handshake cannot shift delivery times. The transport-enabled
  // equivalents live in test_backhaul.cpp's BackhaulFsm suite.
  sc.backhaul.enabled = false;
  return sc;
}

}  // namespace

TEST(FailureCauses, CoverageHoleWhenNoAlternativeExists) {
  // Single cell: when it fades below Qout the best cell IS the serving
  // cell, which classifies as a (soft) coverage hole.
  rem::common::Rng rng(1);
  rs::RadioEnv env({make_cell(0, 0.0)}, deterministic_propagation(),
                   rng.fork());
  ScriptedManager mgr({0});
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, base_config(35.0), bler, rng.fork());
  const auto stats = sim.run(mgr);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(cause_count(stats, rs::FailureCause::kCoverageHole), 1);
  EXPECT_EQ(stats.handovers, 0);
  // Nothing to re-establish on: the run ends still in outage.
  EXPECT_GT(stats.downtime_fraction, 0.0);
}

TEST(FailureCauses, MissedCellWhenBestCandidateIsInvisible) {
  // A healthy neighbor exists at RLF time, but the manager cannot see it
  // (multi-band measurement gap), so no decision was ever possible.
  rem::common::Rng rng(1);
  rs::RadioEnv env({make_cell(0, 0.0), make_cell(1, 4000.0)},
                   deterministic_propagation(), rng.fork());
  ScriptedManager mgr({0});  // cell 1 invisible
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, base_config(35.0), bler, rng.fork());
  const auto stats = sim.run(mgr);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(cause_count(stats, rs::FailureCause::kMissedCell), 1);
}

TEST(FailureCauses, FeedbackLossWhenReportRetransmissionsExhaust) {
  // The manager decides early, but a burst-loss fault swallows the report
  // and all its backoff retransmissions; the RLF then classifies as
  // feedback delay/loss.
  rem::common::Rng rng(1);
  rs::RadioEnv env({make_cell(0, 0.0), make_cell(1, 4000.0)},
                   deterministic_propagation(), rng.fork());
  ScriptedManager mgr({0, 1}, 10.0, 1);
  auto cfg = base_config(35.0);
  cfg.faults.windows = {{rs::FaultKind::kSignalingLoss, 10.005, 4.0, 1.0}};
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, cfg, bler, rng.fork());
  const auto stats = sim.run(mgr);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(cause_count(stats, rs::FailureCause::kFeedbackDelayLoss), 1);
  EXPECT_EQ(stats.report_retransmits, 3);  // bounded backoff, then give up
  EXPECT_EQ(stats.handovers, 0);
}

TEST(FailureCauses, CommandLossWhenDownlinkDeliveryFails) {
  // The report gets through before the burst-loss window opens; the
  // handover command falls inside it and is lost.
  rem::common::Rng rng(1);
  rs::RadioEnv env({make_cell(0, 0.0), make_cell(1, 4000.0)},
                   deterministic_propagation(), rng.fork());
  ScriptedManager mgr({0, 1}, 10.0, 1);
  auto cfg = base_config(35.0);
  cfg.faults.windows = {{rs::FaultKind::kSignalingLoss, 10.06, 4.0, 1.0}};
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, cfg, bler, rng.fork());
  const auto stats = sim.run(mgr);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(cause_count(stats, rs::FailureCause::kHoCommandLoss), 1);
  EXPECT_EQ(stats.handovers, 0);  // command never reached the UE
}

TEST(FailureCauses, T304ExpiryFallsBackToPreparedTarget) {
  // The command is delivered, but a blackout window covers the execution
  // interruption, so the target cannot be connected (T304 expiry). Once
  // the blackout lifts, re-establishment on the prepared target succeeds
  // within the fast kT304Reestablish_s budget.
  rem::common::Rng rng(1);
  rs::RadioEnv env({make_cell(0, 0.0), make_cell(1, 2000.0)},
                   deterministic_propagation(), rng.fork());
  ScriptedManager mgr({0, 1}, 12.0, 1);
  auto cfg = base_config(20.0);
  cfg.faults.windows = {{rs::FaultKind::kCoverageBlackout, 12.10, 0.35,
                         40.0}};
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, cfg, bler, rng.fork());
  const auto stats = sim.run(mgr);
  EXPECT_EQ(stats.handovers, 1);
  EXPECT_EQ(stats.successful_handovers, 0);
  EXPECT_EQ(stats.t304_expiries, 1);
  EXPECT_EQ(stats.t304_fallback_success, 1);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(cause_count(stats, rs::FailureCause::kFeedbackDelayLoss), 1);
  EXPECT_EQ(mgr.serving(), 1u);  // camped on the prepared target
  ASSERT_EQ(stats.outage_durations_s.size(), 1u);
  // Fast fallback: well under the full RLF search budget.
  EXPECT_LT(stats.outage_durations_s[0], rs::kReestablish_s);
}

// ---------- Preparation rejects and crash-flushed jobs ----------
// Two attempt branches the randomized suites never reach: a target that
// refuses admission over the backhaul (its mean RSRP at the UE is below
// kMinCoverageRsrpDbm), and a BS crash that flushes a UE's queued
// decision job. Every run is invariant-checked.

namespace {

int event_count(const rs::SimStats& s, rs::EventKind kind) {
  int n = 0;
  for (const auto& e : s.events)
    if (e.kind == kind) ++n;
  return n;
}

/// Runs `cfg` (events recorded) over `cells` with an invariant checker
/// attached, failing the test on any violation.
rs::SimStats run_checked(const std::vector<rs::Cell>& cells,
                         rs::SimConfig cfg, ScriptedManager& mgr) {
  rem::common::Rng rng(1);
  rs::RadioEnv env(cells, deterministic_propagation(), rng.fork());
  cfg.record_events = true;
  rem::testkit::CheckerConfig ccfg;
  ccfg.sim = cfg;
  ccfg.num_cells = cells.size();
  ccfg.faults_expected = !cfg.faults.empty();
  rem::testkit::InvariantChecker checker(ccfg);
  cfg.observer = &checker;
  rem::phy::LogisticBlerModel bler;
  rs::Simulator sim(env, cfg, bler, rng.fork());
  auto stats = sim.run(mgr);
  EXPECT_EQ(checker.violation_count(), 0) << checker.report();
  return stats;
}

/// Serving cell 0, a near cell 1 (2 km) and a cell 2 about 11 km ahead of
/// the UE at decision time: rsrp(11 km) ~ -129 dBm, below the -120 dBm
/// coverage floor, so cell 2 rejects every HANDOVER REQUEST.
std::vector<rs::Cell> reject_geometry() {
  return {make_cell(0, 0.0), make_cell(1, 2000.0), make_cell(2, 12000.0)};
}

rs::SimConfig backhaul_config(double duration_s) {
  auto cfg = base_config(duration_s);
  cfg.backhaul.enabled = true;
  return cfg;
}

}  // namespace

TEST(PrepReject, WithoutFallbackFailsThePreparation) {
  ScriptedManager mgr({0, 1, 2}, 10.0, 2);
  const auto stats = run_checked(reject_geometry(), backhaul_config(12.0),
                                 mgr);
  EXPECT_EQ(stats.prep_requests, 1);
  EXPECT_EQ(stats.prep_rejects, 1);
  EXPECT_EQ(stats.prep_failures, 1);
  EXPECT_EQ(stats.prep_fallbacks, 0);
  EXPECT_EQ(stats.prep_acks, 0);
  EXPECT_EQ(event_count(stats, rs::EventKind::kPrepReject), 1);
  EXPECT_EQ(event_count(stats, rs::EventKind::kPrepFailed), 1);
  EXPECT_EQ(stats.handovers, 0);
  EXPECT_EQ(mgr.serving(), 0u);
}

TEST(PrepReject, FallbackTargetAcksAndCompletesTheHandover) {
  ScriptedManager mgr({0, 1, 2}, 10.0, 2, /*fallback=*/1);
  const auto stats = run_checked(reject_geometry(), backhaul_config(12.0),
                                 mgr);
  EXPECT_EQ(stats.prep_requests, 2);
  EXPECT_EQ(stats.prep_rejects, 1);
  EXPECT_EQ(stats.prep_fallbacks, 1);
  EXPECT_EQ(stats.prep_acks, 1);
  EXPECT_EQ(stats.prep_failures, 0);
  EXPECT_EQ(event_count(stats, rs::EventKind::kPrepReject), 1);
  EXPECT_EQ(event_count(stats, rs::EventKind::kPrepFallback), 1);
  EXPECT_EQ(event_count(stats, rs::EventKind::kPrepAck), 1);
  EXPECT_EQ(stats.handovers, 1);
  EXPECT_EQ(stats.successful_handovers, 1);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(mgr.serving(), 1u);
}

TEST(CrashFlush, ServingCrashFlushesTheQueuedDecisionJob) {
  // The report reaches the serving BS at ~10 s and its 50 ms RRC decision
  // job is in service when the crash window opens on that BS at 10.02 s.
  ScriptedManager mgr({0, 1}, 10.0, 1);
  auto cfg = base_config(12.0);
  cfg.bs_capacity.enabled = true;
  cfg.faults.windows = {{rs::FaultKind::kBsCrashRestart, 10.02, 1.0, 1.0}};
  const auto stats =
      run_checked({make_cell(0, 0.0), make_cell(1, 2000.0)}, cfg, mgr);
  EXPECT_EQ(stats.bs_crashes, 1);
  EXPECT_EQ(stats.bs_jobs_submitted, 1);
  EXPECT_EQ(stats.bs_jobs_flushed, 1);
  EXPECT_EQ(stats.bs_jobs_served, 0);
}
