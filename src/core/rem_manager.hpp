// REM mobility management: movement-based triggering in the delay-Doppler
// domain. Stable DD-SNR input, one measurement per base station with
// SVD cross-band estimation for co-located cells (§5.2), a single-stage
// conflict-free A3 policy (§5.3), and OTFS-carried signaling (§5.1).
#pragma once

#include "core/load_tie_break.hpp"
#include "mobility/measurement.hpp"
#include "sim/simulator.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace rem::core {

struct RemConfig {
  /// Coordinated A3 offset (Theorem 2: pairwise sums must be >= 0; a
  /// uniform non-negative offset trivially satisfies it).
  double a3_offset_db = 2.0;
  double hysteresis_db = 1.0;
  /// Short TTT — the stable DD metric does not need long smoothing.
  double time_to_trigger_s = 0.040;
  mobility::MeasurementConfig measurement;
  /// Re-fire interval after an emitted decision (lost-report retry).
  double refire_interval_s = 0.12;
  /// Degrade to direct (time-frequency) measurement when the delay-Doppler
  /// estimates behind the observations are staler than this (pilot
  /// outage): acting on faulted cross-band estimates is worse than paying
  /// the legacy measurement delay. Exits as soon as pilots are fresh.
  double estimate_staleness_s = 0.20;

  // --- Ablation switches (bench_ablation) ---
  /// Carry signaling over OTFS (false = legacy OFDM signaling, keeping
  /// everything else REM).
  bool use_otfs_signaling = true;
  /// Use cross-band estimation for co-located cells (false = only the
  /// directly measured cell per site is visible, and every monitored cell
  /// costs a measurement like legacy).
  bool use_crossband = true;
  /// Select targets by Shannon capacity B*log2(1+SNR) instead of SNR
  /// (§5.3 step 3 / §8 "On data speed"; Theorems 2-3 hold either way).
  bool capacity_selection = false;

  RemConfig() { measurement.crossband_runtime_s = 0.020; }
};

class RemManager final : public sim::MobilityManager {
 public:
  /// A manager instance serves exactly one UE — it carries per-UE
  /// estimate/trigger state and its own RNG stream. Fleet runs
  /// (Simulator::run_fleet) construct one instance per UE through the
  /// factory, forking `rng` from a dedicated manager master stream in
  /// UE-id order *before* the simulation stream is forked, so manager
  /// draws never interleave with simulator draws (bench/fleet_runner.hpp
  /// documents the full construction-order contract).
  explicit RemManager(RemConfig cfg, common::Rng rng)
      : cfg_(cfg), rng_(std::move(rng)) {}

  std::string name() const override { return "REM"; }
  phy::Waveform waveform() const override {
    return cfg_.use_otfs_signaling ? phy::Waveform::kOTFS
                                   : phy::Waveform::kOFDM;
  }
  /// REM's handover decision runs client-side (§4: the UE predicts and
  /// triggers), so it never occupies the serving BS's control-plane queue
  /// — the degraded-mode asymmetry under BS overload.
  bool client_driven() const override { return true; }
  /// Throws std::invalid_argument for a candidate with a negative cell or
  /// site id (RadioEnv numbers both from 0): per-cell and per-site state
  /// lives in tables indexed by id.
  std::optional<sim::HandoverDecision> update(
      double t, const sim::ServingState& serving,
      const std::vector<sim::Observation>& neighbors) override;
  /// The policy compares delay-Doppler SNRs. The instantaneous SNR is
  /// read only in degraded mode, which needs an estimate older than
  /// estimate_staleness_s, and estimates age only while pilots are out.
  sim::CandidateMetrics candidate_metrics(bool pilots_out) const override {
    return {.instant = pilots_out || 0.0 > cfg_.estimate_staleness_s,
            .delay_doppler = true};
  }
  std::set<std::size_t> visible_cells() const override {
    return {visible_.begin(), visible_.end()};
  }
  void on_serving_changed(double t, std::size_t new_idx) override;
  /// True while stale cross-band estimates forced the fallback to direct
  /// measurement (temporary use_crossband bypass).
  bool degraded_mode() const override { return degraded_; }

 private:
  /// The directly measured cell of a site this update: the site's first
  /// candidate whose breaker is closed. Valid while `update` equals
  /// update_count_, so no table is cleared per update.
  struct SiteDirect {
    std::uint64_t update = 0;
    std::size_t cell_idx = 0;
  };

  SiteDirect& site_direct(int site);
  /// Cell `cell`'s A3 entry time, NaN while it is not entered.
  double& entered_at(int cell);
  /// The measurement plan behind a decision's feedback delay: one task per
  /// measured site (or per monitored cell without cross-band estimation)
  /// over the kMaxMeasuredSites strongest sites. Fills tasks_.
  void plan_measurements(const sim::ServingState& serving,
                         const std::vector<sim::Observation>& neighbors,
                         bool crossband);

  RemConfig cfg_;
  common::Rng rng_;
  bool degraded_ = false;
  double last_decision_t_ = -1e9;
  std::uint64_t update_count_ = 0;  ///< updates so far (site_direct_ stamps)
  /// A3 entry time per neighbour cell id (TTT tracking), cleared on a
  /// serving change. Indexed by id and grown to the largest id seen, so
  /// a steady-state update allocates nothing.
  std::vector<double> entered_at_;
  /// Indexed by site id, grown like entered_at_.
  std::vector<SiteDirect> site_direct_;
  /// This tick's candidates (cell indices, ascending as observed).
  std::vector<std::size_t> visible_;
  // Per-update scratch, kept so a steady-state update allocates nothing.
  /// This tick's cross-band estimation errors, in candidate order.
  std::vector<double> errors_;
  /// This tick's TTT-qualified candidates (load-aware tie-break input).
  std::vector<LoadCandidate> qualified_;
  // Decision scratch (plan_measurements). Sites are looked up by linear
  // search: a tick sees a few dozen candidates on about half as many
  // sites.
  std::vector<std::pair<int, double>> site_strength_;  ///< site, best dd-SNR
  /// (-dd-SNR, site), strongest first; cut to the sites measured.
  std::vector<std::pair<double, int>> ranked_;
  std::vector<mobility::MeasureTask> tasks_;
};

}  // namespace rem::core
