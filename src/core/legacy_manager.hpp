// Legacy 4G/5G mobility management (the baseline REM is compared against):
// wireless-signal-strength input with fast fading, per-cell multi-stage
// policies (Fig. 1b), sequential measurement with gaps and long
// inter-frequency TimeToTrigger, OFDM signaling.
#pragma once

#include "core/load_tie_break.hpp"
#include "mobility/measurement.hpp"
#include "mobility/policy.hpp"
#include "sim/simulator.hpp"

#include <map>
#include <set>
#include <utility>
#include <vector>

namespace rem::core {

struct LegacyConfig {
  /// Per-cell policies, keyed by CellId::cell. Cells without an entry get
  /// `default_policy`.
  std::map<int, mobility::CellPolicy> policies;
  mobility::CellPolicy default_policy;
  mobility::MeasurementConfig measurement;
};

class LegacyManager final : public sim::MobilityManager {
 public:
  /// A manager instance serves exactly one UE (it tracks per-UE TTT and
  /// visibility state); fleet runs construct one per UE via the
  /// Simulator::run_fleet factory. The legacy manager draws no
  /// randomness, so all fleet UEs share the same LegacyConfig.
  explicit LegacyManager(LegacyConfig cfg);

  std::string name() const override { return "Legacy"; }
  phy::Waveform waveform() const override { return phy::Waveform::kOFDM; }
  std::optional<sim::HandoverDecision> update(
      double t, const sim::ServingState& serving,
      const std::vector<sim::Observation>& neighbors) override;
  /// Legacy policies compare instantaneous RSRPs only.
  sim::CandidateMetrics candidate_metrics(bool /*pilots_out*/) const override {
    return {.instant = true, .delay_doppler = false};
  }
  std::set<std::size_t> visible_cells() const override {
    return {visible_.begin(), visible_.end()};
  }
  void on_serving_changed(double t, std::size_t new_idx) override;

  int current_stage() const { return stage_; }
  int reconfigurations() const { return reconfigurations_; }

 private:
  const mobility::CellPolicy& serving_policy() const;
  bool rule_matches(const mobility::PolicyRule& rule,
                    const mobility::CellId& serving,
                    const mobility::CellId& target) const;

  LegacyConfig cfg_;
  mobility::CellId serving_id_;
  int stage_ = 0;
  int reconfigurations_ = 0;  ///< since last serving change
  /// A fired reconfiguration takes a round trip to take effect; until
  /// `stage_change_due_` the client still measures the old stage's cells.
  int pending_stage_ = -1;
  double stage_change_due_ = -1.0;
  double last_decision_t_ = -1e9;
  /// TTT monitors keyed by (rule index, neighbor cell id).
  std::map<std::pair<int, int>, mobility::EventMonitor> monitors_;
  /// This tick's monitored cells (cell indices, strongest first).
  std::vector<std::size_t> visible_;
  // Per-update scratch, kept so a steady-state update allocates nothing.
  /// (-RSRP, observation) of the monitored cells, strongest first. The
  /// pointers are into update()'s `neighbors` and read only during it.
  std::vector<std::pair<double, const sim::Observation*>> candidates_;
  /// The measurement task list behind a decision's feedback delay.
  std::vector<mobility::MeasureTask> tasks_;
  /// Handover rules that fired this tick, for the load-aware tie-break.
  std::vector<LoadCandidate> fired_;
};

}  // namespace rem::core
