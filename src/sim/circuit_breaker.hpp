// Per-target circuit breaker: the source-side guard that stops a UE from
// hammering a dying base station with handover preparations. Consecutive
// preparation failures or admission busy-rejects toward one target trip
// the breaker (open); after a deterministic cool-down one half-open probe
// preparation is allowed — success closes the breaker, failure re-trips
// it with a fresh cool-down. The FSM is pure arithmetic over the caller's
// simulated clock: no wall time, no randomness, so breaker timelines are
// bit-identical at any thread count and across sim engines.
//
// Header-only and dependency-free: the simulator keeps one breaker per
// (UE, target cell), and tests/test_cascade.cpp exercises the FSM directly.
#pragma once

namespace rem::sim {

enum class BreakerState {
  kClosed,    ///< target healthy: preparations flow freely
  kOpen,      ///< tripped: refuse the target until the cool-down elapses
  kHalfOpen,  ///< cool-down over: exactly one probe preparation in flight
};

/// One target cell's breaker. Construct with the trip threshold K (trip
/// after exactly K *consecutive* failures) and the cool-down in simulated
/// seconds; `trip_threshold <= 0` disables the breaker entirely (it never
/// leaves kClosed).
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  CircuitBreaker(int trip_threshold, double cooldown_s)
      : trip_threshold_(trip_threshold),
        cooldown_s_(cooldown_s < 0.0 ? 0.0 : cooldown_s) {}

  /// May the caller start a preparation toward this target at time `now`?
  /// Closed: yes. Open: no until `now` reaches the cool-down deadline, at
  /// which point the breaker moves to half-open and admits the caller as
  /// the probe. Half-open: only the probe already admitted (subsequent
  /// callers wait for its outcome). The transition on the first allowed
  /// call after the deadline is what makes "one probe per cool-down"
  /// deterministic; a caller that saw kOpen before an allowed call knows
  /// that call was the probe.
  bool allow(double now) {
    if (trip_threshold_ <= 0 || state_ == BreakerState::kClosed) return true;
    if (state_ == BreakerState::kOpen) {
      if (now < reopen_at_s_) return false;
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    }
    // Half-open: the single probe slot is taken until record_* resolves it.
    if (probe_in_flight_) return false;
    probe_in_flight_ = true;
    return true;
  }

  /// One preparation failure / busy-reject toward the target at `now`.
  /// Returns true when this failure tripped the breaker (closed -> open on
  /// the K-th consecutive failure, or a failed half-open probe re-trip).
  bool record_failure(double now) {
    if (trip_threshold_ <= 0) return false;
    if (state_ == BreakerState::kHalfOpen) {
      probe_in_flight_ = false;
      trip(now);
      return true;
    }
    if (state_ == BreakerState::kOpen) return false;
    if (++consecutive_failures_ >= trip_threshold_) {
      trip(now);
      return true;
    }
    return false;
  }

  /// One successful preparation (ack) toward the target. Returns true when
  /// this success closed a half-open breaker (the probe won).
  bool record_success() {
    consecutive_failures_ = 0;
    if (state_ == BreakerState::kHalfOpen) {
      probe_in_flight_ = false;
      state_ = BreakerState::kClosed;
      return true;
    }
    return false;
  }

  BreakerState state() const { return state_; }
  /// Open and still cooling down at `now`: the simulator hides the target
  /// from candidate selection (what Observation::breaker_open reports).
  /// Half-open targets stay visible: they are probe-eligible, not refused.
  bool refuses(double now) const {
    return trip_threshold_ > 0 && state_ == BreakerState::kOpen &&
           now < reopen_at_s_;
  }
  bool probe_in_flight() const { return probe_in_flight_; }

 private:
  void trip(double now) {
    state_ = BreakerState::kOpen;
    reopen_at_s_ = now + cooldown_s_;
    consecutive_failures_ = 0;
  }

  int trip_threshold_ = 0;
  double cooldown_s_ = 0.0;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  double reopen_at_s_ = 0.0;
  bool probe_in_flight_ = false;
};

}  // namespace rem::sim
