// Runtime invariant checker for the network simulator.
//
// The paper's core claims are invariants, not point estimates: repaired
// pure-A3 policies are loop-free (Theorems 2/3), the delay-Doppler overlay
// never loses or double-delivers signaling it claims to carry (§5.1), and
// stale cross-band estimates must trip the degraded-mode fallback (§5.2).
// InvariantChecker subscribes to the simulator's observation hook
// (sim/observer.hpp) and machine-checks those properties over *every* run:
//
//  - event timestamps are monotonic and cell indices stay in range;
//  - handover conservation: every delivered command opens exactly one
//    execution that closes as exactly one completion or T304 expiry, and
//    at end of run attempts = successes + expiries + (<=1 in flight);
//  - timer-FSM legality: T310 arms only after N310 consecutive
//    out-of-sync ticks, never runs during execution or outage, and an RLF
//    only fires after T310 ran its full budget; re-establishment respects
//    the T304/RLF search times; no signaling is pending while idle in
//    outage or during execution;
//  - counter reconciliation: the checker is the one independent
//    event-derived recount of SimStats. Every field whose stats-table row
//    (sim/stats_table.hpp) names a source EventKind must equal the count,
//    positive-payload count, or bit-exact payload sum of those events;
//    failures == RLF + T304 events == the sum of failures_by_cause; one
//    feedback-delay sample per delivered report; and the outage durations
//    sum bit-exactly to the failure-to-re-establishment gaps;
//  - loop accounting: the checker independently recomputes loop handovers
//    and episodes from the event stream and cross-validates SimStats;
//    optionally (repaired pure-A3 REM policies on fault-free runs) it
//    asserts realized loop-freedom — no *persistent* loop episodes;
//  - degraded-mode legality: entering degraded mode requires estimates
//    staler than the configured bound at that tick; fault-free runs must
//    never see fault windows or degraded transitions;
//  - backhaul preparation legality (transport-enabled runs): prep events
//    flow only on a live idle link, every delivered command follows an
//    acked HANDOVER REQUEST, retries stay inside the configured budget
//    (no retry storms), ack round trips respect the 2x-one-way-latency
//    physical floor, and context-fetch failures occur only in outage;
//  - BS capacity legality (capacity-model runs): per-tick queue occupancy
//    never exceeds slots + queue_capacity, job conservation holds
//    (submitted = served + shed + flushed + in-flight), queue-wait totals
//    reconcile bit-for-bit against the event stream, admission busy
//    rejects answer an outstanding request, at most one BS is crashed at
//    a time (unless a region_outage schedule legally stacks a correlated
//    blackout), no handover completes against a dead BS, and crash
//    recovery respects the re-establishment search-time floors (crashes
//    surface as RLFs, which the existing timer checks already bound);
//  - cascade/breaker legality (cascade-resilience runs): every
//    kCascadeInject carries a positive job payload; the per-target
//    circuit-breaker FSM
//    replayed from trip/probe/close events stays legal (probe only from
//    open, close only from half-open) and matches the per-tick
//    breakers_open count; the run-end load-advertisement age never
//    exceeds the configured staleness bound;
//  - TCP sanity: every recorded outage maps to a TCP stall bounded by
//    outage <= stall <= outage + max RTO + RTT + base RTO.
//
// Violations accumulate with rich context (timestamp + state) and are
// surfaced both through violations()/report() and as the structured
// SimStats::invariant_violations counter written in on_run_end().
#pragma once

#include "sim/observer.hpp"
#include "sim/simulator.hpp"

#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rem::testkit {

struct CheckerConfig {
  /// The run's SimConfig: duration, backhaul, BS capacity, fault schedule
  /// and resilience knobs. The recovery timers are the sim:: constants.
  sim::SimConfig sim;
  /// Number of cells in the deployment; 0 skips index-range checks.
  std::size_t num_cells = 0;
  /// When >= 0, degraded-mode entries must coincide with estimate age
  /// above this bound (RemConfig::estimate_staleness_s). Negative skips.
  double staleness_bound_s = -1.0;
  /// Manager has no degraded fallback (legacy): any degraded transition
  /// is a violation.
  bool expect_no_degraded = false;
  /// A fault schedule is active: fault windows and degraded transitions
  /// are legal. When false, any of those events is a violation.
  bool faults_expected = false;
  /// Repaired pure-A3 policy on a fault-free run (REM): persistent loop
  /// episodes (two or more consecutive loop handovers) violate the
  /// realized Theorem-2/3 guarantee.
  bool expect_loop_free = false;
};

class InvariantChecker final : public sim::SimObserver {
 public:
  explicit InvariantChecker(CheckerConfig cfg);

  void on_event(const sim::SignalingEvent& e) override;
  void on_tick(const sim::TickView& v) override;
  void on_run_end(sim::SimStats& stats) override;

  /// Total violations found so far (may exceed violations().size()).
  int violation_count() const { return violation_count_; }
  /// Recorded violation messages, each with timestamp + state context.
  const std::vector<std::string>& violations() const { return violations_; }
  /// All recorded violations joined into one newline-separated report;
  /// empty string when the run was clean.
  std::string report() const;

  /// Loop accounting recomputed from the event stream (cross-validated
  /// against SimStats in on_run_end).
  int observed_loop_handovers() const { return loop_handovers_; }
  int observed_loop_episodes() const { return loop_episodes_; }
  /// Episodes with >= 2 consecutive loop handovers — a persistent
  /// ping-pong, the paper's Theorem-2 failure mode.
  int persistent_loop_episodes() const { return persistent_episodes_; }

 private:
  void violate(double t, const std::string& what);
  void check_event(const sim::SignalingEvent& e);
  void check_tick(const sim::TickView& v);

  CheckerConfig cfg_;
  int violation_count_ = 0;
  std::vector<std::string> violations_;

  /// Events of kind `k` seen so far (the current one included).
  long long count(sim::EventKind k) const {
    return events_[static_cast<std::size_t>(k)];
  }

  // --- Event recount: per-kind totals, read by the stats table's
  // --- recount column at run end ---
  std::array<long long, sim::kNumEventKinds> events_{};
  std::array<long long, sim::kNumEventKinds> positive_payloads_{};
  std::array<double, sim::kNumEventKinds> payload_sums_{};
  double outage_sum_s_ = 0.0;  ///< closed outages' durations, in order

  // --- Event-stream state machine mirror ---
  bool saw_event_ = false;
  double last_event_t_ = 0.0;
  bool exec_open_ = false;       ///< command delivered, not yet closed
  bool outage_open_ = false;     ///< RLF/T304 failure, not yet reestablished
  double outage_opened_t_ = 0.0;
  double outage_min_reestablish_s_ = 0.0;
  bool pending_degraded_enter_check_ = false;

  // --- Backhaul preparation mirror (cfg.sim.backhaul.enabled runs) ---
  bool prep_open_ = false;        ///< HANDOVER REQUEST outstanding
  bool prep_acked_ = false;       ///< an ack arrived, command not yet out
  int prep_retries_this_attempt_ = 0;

  /// Currently-dead BSs. At most one under plain crash-restart; a
  /// region_outage schedule legally stacks several.
  std::set<int> crashed_cells_;

  /// Per-target breaker FSM replayed from the event stream:
  /// 0 = closed, 1 = open, 2 = half-open. Keyed by target cell.
  std::map<int, int> breaker_state_;
  int breakers_open_mirror_ = 0;  ///< cells currently in state 1

  // --- Loop bookkeeping mirror (simulator's recent-serving window) ---
  std::vector<std::pair<double, int>> recent_serving_;
  bool current_loop_episode_ = false;
  int loop_handovers_ = 0;
  int loop_episodes_ = 0;
  int episode_run_length_ = 0;   ///< loop handovers in the current episode
  int persistent_episodes_ = 0;

  // --- Tick-stream timer mirror ---
  bool have_prev_tick_ = false;
  sim::TickView prev_;
  double t310_armed_t_ = -1.0;
  int events_this_tick_ = 0;          ///< events since the last TickView
  double events_tick_min_t_ = 0.0;
  double events_tick_max_t_ = 0.0;
  bool reestablished_this_tick_ = false;
};

/// Fleet-level invariants over a Simulator::run_fleet result, checked
/// after the run (the per-UE InvariantChecker instances — one per UE via
/// sim::UeObserverDemux — cover the within-UE FSM properties):
///
///  - per-UE handover conservation holds even under shared-BS contention
///    (successes + execution expiries never exceed attempts; counters are
///    non-negative);
///  - every recorded per-UE event carries that UE's id and per-UE logs
///    are time-sorted;
///  - every scalar aggregate field equals the fold of the per-UE values
///    under its stats-table merge rule (sim/stats_table.hpp), and the
///    world-global fields (bs_crashes, cascade counters, sim_time_s)
///    agree across all UEs;
///  - the merged event log has no cross-UE timestamp regression
///    (non-decreasing t_s) and filtering it by UE id reproduces each
///    per-UE log exactly, in order.
///
/// Returns one message per violation; empty means clean.
std::vector<std::string> fleet_invariant_report(const sim::FleetResult& r);

}  // namespace rem::testkit
