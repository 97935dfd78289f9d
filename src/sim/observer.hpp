// Observation hook for the network simulator: a SimObserver attached via
// SimConfig::observer receives the full signaling event stream (whether or
// not SimConfig::record_events is set), one TickView snapshot per simulated
// tick, and a final mutable look at the SimStats before run() returns.
//
// The hook exists so correctness tooling (rem::testkit::InvariantChecker)
// can machine-check cross-cutting invariants over *every* run without the
// simulator depending on the testkit layer. Observers must not mutate
// simulation state and must not draw randomness; the simulator guarantees
// the hook itself performs no RNG draws, so attaching an observer never
// changes a run's results.
#pragma once

#include "sim/events.hpp"

#include <cstddef>
#include <vector>

namespace rem::sim {

struct SimStats;

/// Per-tick snapshot of the simulator's recovery/handover state machines,
/// emitted at the *end* of each tick (after all transitions for that tick
/// have been applied and their events delivered).
struct TickView {
  double t_s = 0.0;
  int serving = -1;              ///< serving cell index (stale in outage)
  /// Instantaneous serving-link SNR this tick; NaN on outage ticks, where
  /// no radio state is sampled.
  double serving_snr_db = 0.0;
  bool in_outage = false;        ///< between an RLF/T304 failure and camp
  bool executing = false;        ///< handover execution (T304 window) open
  bool t310_running = false;     ///< RLF timer armed
  int oos_count = 0;             ///< consecutive out-of-sync ticks (N310)
  int is_count = 0;              ///< consecutive in-sync ticks (N311)
  bool report_pending = false;   ///< measurement report still in flight
  /// Backhaul preparation in progress: report delivered, HANDOVER REQUEST
  /// sent or about to be, no ack/terminal outcome yet. Always false when
  /// the backhaul transport is disabled.
  bool prep_pending = false;
  bool command_pending = false;  ///< HO command still in flight
  bool pilot_fault = false;      ///< pilot-outage fault active this tick
  bool blackout = false;         ///< coverage-blackout fault active
  /// Age of the delay-Doppler estimates the manager sees this tick (the
  /// same value the Observation rows carry): 0 while pilots are fresh.
  double estimate_age_s = 0.0;
  bool degraded = false;         ///< manager degraded mode as last sampled
  /// Highest per-BS occupancy (busy slots + queued jobs, background
  /// included) across all stations this tick; never exceeds
  /// slots + queue_capacity. Always 0 when the capacity model is off.
  int bs_queue_peak = 0;
  int crashed_cells = 0;         ///< cells currently dead (crash-restart
                                 ///< windows and region-outage members)
  /// This UE's per-target circuit breakers currently open (0 when the
  /// breaker is disabled); the invariant checker mirrors it from the
  /// kBreakerTrip/kBreakerProbe/kBreakerClose event stream.
  int breakers_open = 0;
  /// Owning UE (fleet runs); always 0 in single-UE runs.
  int ue = 0;
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// Every subsequent on_event/on_tick/on_run_end call is attributed to
  /// UE `ue` until the next on_ue. The engine fires it whenever the
  /// attributed UE changes (events and ticks both carry the same id
  /// redundantly in their `ue` fields), so a single-UE run calls on_ue(0)
  /// exactly once, before its first callback.
  virtual void on_ue(int /*ue*/) {}
  /// Every signaling event, in emission order, independent of
  /// SimConfig::record_events.
  virtual void on_event(const SignalingEvent& /*event*/) {}
  /// Exactly one call per simulated tick, after the tick's transitions.
  /// Fleet runs emit one TickView per UE per tick, in UE-id order.
  virtual void on_tick(const TickView& /*view*/) {}
  /// Called once per UE at the end of the run with that UE's final
  /// statistics, attributed by on_ue like every other call; observers may
  /// write back summary fields (e.g. SimStats::invariant_violations). A
  /// fleet's aggregate stats are never passed through this hook.
  virtual void on_run_end(SimStats& /*stats*/) {}
};

/// Forwards every hook to multiple child observers, in add() order, so a
/// single SimConfig::observer slot can host several independent observers
/// (e.g. testkit::InvariantChecker plus obs::SpanTracer).
///
/// Child pointers are borrowed, never owned: each child must outlive the
/// simulation run. A nullptr child is ignored. Children must individually
/// satisfy the SimObserver contract (no mutation, no RNG draws); the
/// fanout adds no state of its own, so forwarding order only matters if a
/// child breaks that contract.
class ObserverFanout : public SimObserver {
 public:
  void add(SimObserver* child) {
    if (child != nullptr) children_.push_back(child);
  }

  void on_ue(int ue) override {
    for (SimObserver* c : children_) c->on_ue(ue);
  }
  void on_event(const SignalingEvent& event) override {
    for (SimObserver* c : children_) c->on_event(event);
  }
  void on_tick(const TickView& view) override {
    for (SimObserver* c : children_) c->on_tick(view);
  }
  void on_run_end(SimStats& stats) override {
    for (SimObserver* c : children_) c->on_run_end(stats);
  }

 private:
  std::vector<SimObserver*> children_;
};

/// Routes a fleet run's interleaved observer stream to one single-UE
/// child observer per UE: on_ue(k) selects child k, and every subsequent
/// on_event/on_tick/on_run_end is forwarded only to it. Each child thus
/// sees exactly what a single-UE run of its own UE would show it — which
/// is how an unmodified InvariantChecker or SpanTracer checks one UE of a
/// fleet. The selecting on_ue(k) is also forwarded to child k, so a child
/// that wants its own id for labeling (SpanTracer stamps `"ue": k` onto
/// trace lines) can take it from there; it only ever receives its own id,
/// and observers without a use for it ignore the call via the no-op
/// default. Children are borrowed, registered in UE-id order via add(),
/// and must outlive the run; a nullptr child mutes that UE.
class UeObserverDemux : public SimObserver {
 public:
  void add(SimObserver* child) { children_.push_back(child); }

  void on_ue(int ue) override {
    current_ = ue >= 0 && static_cast<std::size_t>(ue) < children_.size()
                   ? children_[static_cast<std::size_t>(ue)]
                   : nullptr;
    if (current_ != nullptr) current_->on_ue(ue);
  }
  void on_event(const SignalingEvent& event) override {
    if (current_ != nullptr) current_->on_event(event);
  }
  void on_tick(const TickView& view) override {
    if (current_ != nullptr) current_->on_tick(view);
  }
  void on_run_end(SimStats& stats) override {
    if (current_ != nullptr) current_->on_run_end(stats);
  }

 private:
  std::vector<SimObserver*> children_;
  SimObserver* current_ = nullptr;
};

}  // namespace rem::sim
