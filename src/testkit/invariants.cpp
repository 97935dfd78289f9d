#include "testkit/invariants.hpp"

#include "common/flat_json.hpp"
#include "sim/tcp.hpp"

#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace rem::testkit {
namespace {

/// Slack for timer-duration comparisons: `t` accumulates via repeated
/// `t += dt`, so durations carry a few ULP of drift per thousand ticks.
constexpr double kTimeEps = 1e-6;

/// Cap on recorded violation messages (the counter keeps counting).
constexpr std::size_t kMaxRecorded = 32;

/// Stats values in violation messages are exact, so bit-level drift shows.
using common::flat_json::format_double;

}  // namespace

InvariantChecker::InvariantChecker(CheckerConfig cfg) : cfg_(std::move(cfg)) {}

void InvariantChecker::violate(double t, const std::string& what) {
  ++violation_count_;
  if (violations_.size() >= kMaxRecorded) return;
  std::ostringstream os;
  using sim::EventKind;
  os << "[t=" << std::fixed << std::setprecision(3) << t << "s] " << what
     << " | state: exec=" << exec_open_ << " outage=" << outage_open_
     << " cmds=" << count(EventKind::kHoCommandDelivered)
     << " complete=" << count(EventKind::kHandoverComplete)
     << " t304=" << count(EventKind::kT304Expiry)
     << " rlf=" << count(EventKind::kRadioLinkFailure)
     << " reest=" << count(EventKind::kReestablished)
     << " loops=" << loop_handovers_ << "/" << loop_episodes_;
  violations_.push_back(os.str());
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) os << '\n';
    os << violations_[i];
  }
  if (violation_count_ > static_cast<int>(violations_.size()))
    os << "\n... and "
       << violation_count_ - static_cast<int>(violations_.size())
       << " more violation(s)";
  return violation_count_ > 0 ? os.str() : std::string();
}

void InvariantChecker::on_event(const sim::SignalingEvent& e) {
  check_event(e);
}

void InvariantChecker::on_tick(const sim::TickView& v) {
  check_tick(v);
}

void InvariantChecker::check_event(const sim::SignalingEvent& e) {
  using sim::EventKind;
  const double t = e.t_s;

  // The recount behind every table-driven counter check in on_run_end.
  const auto k = static_cast<std::size_t>(e.kind);
  if (k < sim::kNumEventKinds) {
    ++events_[k];
    payload_sums_[k] += e.serving_snr_db;
    if (e.serving_snr_db > 0.0) ++positive_payloads_[k];
  }

  // Timestamps never go backwards within the event stream, and no event
  // may carry a timestamp at or before the last completed tick.
  if (saw_event_ && t < last_event_t_ - kTimeEps)
    violate(t, "event timestamp went backwards (prev " +
                   std::to_string(last_event_t_) + "s, kind " +
                   sim::event_kind_name(e.kind) + ")");
  if (have_prev_tick_ && t <= prev_.t_s - kTimeEps)
    violate(t, "event timestamp predates the last completed tick (" +
                   std::to_string(prev_.t_s) + "s)");
  saw_event_ = true;
  last_event_t_ = t;

  // Cell-index ranges. Fault-window events reuse target_cell as the
  // FaultKind, everything else indexes the deployment (or -1 = n/a).
  const bool fault_event =
      e.kind == EventKind::kFaultStart || e.kind == EventKind::kFaultEnd;
  if (cfg_.num_cells > 0) {
    if (e.serving_cell < 0 ||
        e.serving_cell >= static_cast<int>(cfg_.num_cells))
      violate(t, "serving_cell " + std::to_string(e.serving_cell) +
                     " out of range in " + sim::event_kind_name(e.kind));
    if (!fault_event &&
        (e.target_cell < -1 ||
         e.target_cell >= static_cast<int>(cfg_.num_cells)))
      violate(t, "target_cell " + std::to_string(e.target_cell) +
                     " out of range in " + sim::event_kind_name(e.kind));
  }
  if (fault_event && (e.target_cell < 0 ||
                      e.target_cell >= static_cast<int>(sim::kNumFaultKinds)))
    violate(t, "fault event carries invalid FaultKind " +
                   std::to_string(e.target_cell));

  switch (e.kind) {
    case EventKind::kMeasurementTriggered:
      // A fresh attempt resets the preparation mirror (a superseded
      // attempt's outstanding request can never ack into the new one).
      prep_open_ = false;
      prep_retries_this_attempt_ = 0;
      [[fallthrough]];
    case EventKind::kReportDelivered:
    case EventKind::kReportLost:
    case EventKind::kHoCommandLost:
      // Signaling only flows on a live, non-executing link.
      if (outage_open_)
        violate(t, sim::event_kind_name(e.kind) + " during outage");
      if (exec_open_)
        violate(t, sim::event_kind_name(e.kind) + " during execution");
      break;

    case EventKind::kReportRetransmit:
      if (outage_open_ || exec_open_)
        violate(t, "report retransmit outside a live idle link");
      break;

    case EventKind::kHoCommandDuplicate:
      if (outage_open_ || exec_open_)
        violate(t, "duplicate command outside a live idle link");
      break;

    case EventKind::kHoCommandDelivered:
      if (outage_open_) violate(t, "handover command delivered during outage");
      if (exec_open_)
        violate(t, "handover command delivered with an execution already "
                   "in flight (overlapping T304 windows)");
      if (cfg_.sim.backhaul.enabled && !prep_acked_)
        violate(t, "handover command delivered without an acked "
                   "HANDOVER REQUEST (backhaul transport enabled)");
      prep_acked_ = false;
      exec_open_ = true;
      break;

    case EventKind::kHandoverComplete: {
      if (!exec_open_)
        violate(t, "handover completion without a delivered command");
      if (outage_open_) violate(t, "handover completion during outage");
      if (crashed_cells_.count(e.target_cell) > 0)
        violate(t, "handover completed against crashed BS " +
                       std::to_string(e.target_cell));
      exec_open_ = false;
      // Loop bookkeeping mirror — byte-for-byte the simulator's logic:
      // loop test against the recent-serving window *before* pushing the
      // new serving cell, trim only here (not on re-establishment).
      bool is_loop = false;
      for (const auto& [ts, idx] : recent_serving_) {
        if (t - ts <= sim::kLoopWindow_s && idx == e.target_cell) {
          is_loop = true;
          break;
        }
      }
      recent_serving_.push_back({t, e.target_cell});
      while (!recent_serving_.empty() &&
             t - recent_serving_.front().first > sim::kLoopWindow_s)
        recent_serving_.erase(recent_serving_.begin());
      if (is_loop) {
        ++loop_handovers_;
        if (!current_loop_episode_) {
          ++loop_episodes_;
          current_loop_episode_ = true;
          episode_run_length_ = 1;
        } else if (++episode_run_length_ == 2) {
          // Second consecutive loop handover: the ping-pong persisted.
          ++persistent_episodes_;
        }
      } else {
        current_loop_episode_ = false;
        episode_run_length_ = 0;
      }
      break;
    }

    case EventKind::kT304Expiry:
      if (!exec_open_)
        violate(t, "T304 expiry without a handover execution in flight");
      if (outage_open_) violate(t, "T304 expiry during outage");
      exec_open_ = false;
      outage_open_ = true;
      outage_opened_t_ = t;
      // Fallback re-establishes on the prepared target, which is faster
      // than the full RLF search (weakest valid lower bound either way).
      outage_min_reestablish_s_ = sim::kT304Reestablish_s;
      break;

    case EventKind::kRadioLinkFailure:
      if (exec_open_)
        violate(t, "RLF declared during handover execution (T304, not "
                   "T310, owns this window)");
      if (outage_open_) violate(t, "RLF declared while already in outage");
      // T310 must have been armed (N310 reached) and run its full budget.
      if (t310_armed_t_ < 0.0 || (have_prev_tick_ && !prev_.t310_running))
        violate(t, "RLF without a running T310 timer");
      else if (t - t310_armed_t_ < sim::kT310_s - kTimeEps)
        violate(t, "RLF after only " + std::to_string(t - t310_armed_t_) +
                       "s of T310 (budget " + std::to_string(sim::kT310_s) +
                       "s)");
      outage_open_ = true;
      outage_opened_t_ = t;
      outage_min_reestablish_s_ = sim::kReestablish_s;
      // The failure drops any in-flight preparation with the attempt.
      prep_open_ = false;
      prep_acked_ = false;
      prep_retries_this_attempt_ = 0;
      break;

    case EventKind::kReestablished:
      if (!outage_open_)
        violate(t, "re-establishment without a preceding failure");
      else if (t - outage_opened_t_ < outage_min_reestablish_s_ - kTimeEps)
        violate(t, "re-established after " +
                       std::to_string(t - outage_opened_t_) +
                       "s, below the " +
                       std::to_string(outage_min_reestablish_s_) +
                       "s search-time floor");
      // The same subtraction of the same timestamps the simulator makes,
      // accumulated in the same order: the sums must match bit-exactly.
      if (outage_open_) outage_sum_s_ += t - outage_opened_t_;
      outage_open_ = false;
      reestablished_this_tick_ = true;
      // camp_on() records the new serving cell for loop detection but does
      // not trim the window; mirror exactly.
      recent_serving_.push_back({t, e.serving_cell});
      break;

    case EventKind::kFaultStart:
      if (!cfg_.faults_expected)
        violate(t, "fault window opened on a fault-free run");
      break;
    case EventKind::kFaultEnd:
      if (!cfg_.faults_expected)
        violate(t, "fault window closed on a fault-free run");
      break;

    case EventKind::kDegradedEnter:
      if (cfg_.expect_no_degraded)
        violate(t, "degraded-mode entry from a manager with no fallback");
      if (!cfg_.faults_expected)
        violate(t, "degraded-mode entry on a fault-free run (estimates "
                   "can only go stale under a pilot outage)");
      if (count(EventKind::kDegradedEnter) !=
          count(EventKind::kDegradedExit) + 1)
        violate(t, "degraded enter without matching exit (enters=" +
                       std::to_string(count(EventKind::kDegradedEnter)) +
                       " exits=" +
                       std::to_string(count(EventKind::kDegradedExit)) + ")");
      if (cfg_.staleness_bound_s >= 0.0) pending_degraded_enter_check_ = true;
      break;
    case EventKind::kDegradedExit:
      if (count(EventKind::kDegradedExit) != count(EventKind::kDegradedEnter))
        violate(t, "degraded exit without matching enter (enters=" +
                       std::to_string(count(EventKind::kDegradedEnter)) +
                       " exits=" +
                       std::to_string(count(EventKind::kDegradedExit)) + ")");
      break;

    case EventKind::kPrepRequest:
      if (outage_open_ || exec_open_)
        violate(t, "HANDOVER REQUEST outside a live idle link");
      if (!cfg_.sim.backhaul.enabled)
        violate(t, "HANDOVER REQUEST with the backhaul transport disabled");
      prep_open_ = true;
      prep_retries_this_attempt_ = 0;
      break;

    case EventKind::kPrepRetry:
      if (outage_open_ || exec_open_)
        violate(t, "prep retry outside a live idle link");
      if (!prep_open_)
        violate(t, "prep retry without an outstanding HANDOVER REQUEST");
      if (++prep_retries_this_attempt_ > sim::kPrepMaxRetries)
        violate(t, "prep retry storm: " +
                       std::to_string(prep_retries_this_attempt_) +
                       " retries exceed the budget of " +
                       std::to_string(sim::kPrepMaxRetries));
      break;

    case EventKind::kPrepAck:
      if (outage_open_ || exec_open_)
        violate(t, "prep ack outside a live idle link");
      if (!prep_open_)
        violate(t, "prep ack without an outstanding HANDOVER REQUEST");
      // The event's SNR slot carries the request->ack round trip, which
      // cannot beat the two one-way base latencies. On an asymmetric
      // link (reverse_latency_scale != 1) the return leg pays the scale,
      // so the floor is (1 + scale) x base latency.
      if (e.serving_snr_db <
          (1.0 + std::min(1.0, cfg_.sim.backhaul.reverse_latency_scale)) *
                  cfg_.sim.backhaul.base_latency_s -
              kTimeEps)
        violate(t, "prep RTT " + std::to_string(e.serving_snr_db) +
                       "s below the physical floor of (1+reverse_scale)x "
                       "base latency (" +
                       std::to_string(cfg_.sim.backhaul.base_latency_s) +
                       "s one-way)");
      prep_open_ = false;
      prep_acked_ = true;
      break;

    case EventKind::kPrepReject:
      if (outage_open_ || exec_open_)
        violate(t, "prep reject outside a live idle link");
      if (!prep_open_)
        violate(t, "prep reject without an outstanding HANDOVER REQUEST");
      break;

    case EventKind::kPrepFallback:
      if (outage_open_ || exec_open_)
        violate(t, "prep fallback outside a live idle link");
      if (!prep_open_)
        violate(t, "prep fallback without an outstanding HANDOVER REQUEST");
      prep_retries_this_attempt_ = 0;
      break;

    case EventKind::kPrepFailed:
      if (outage_open_ || exec_open_)
        violate(t, "prep failure outside a live idle link");
      if (!prep_open_)
        violate(t, "prep failure without an outstanding HANDOVER REQUEST");
      prep_open_ = false;
      break;

    case EventKind::kContextFetchFailed:
      if (!outage_open_)
        violate(t, "context-fetch failure outside an outage");
      break;

    case EventKind::kBsQueueShed:
      // An explicit reject at a full signaling queue; the event's SNR
      // slot carries the station load, a fraction of the physical bound.
      if (!cfg_.sim.bs_capacity.enabled)
        violate(t, "BS queue shed with the capacity model disabled");
      if (e.serving_snr_db < 0.0 || e.serving_snr_db > 1.0 + kTimeEps)
        violate(t, "shed event load " + std::to_string(e.serving_snr_db) +
                       " outside [0, 1]");
      break;

    case EventKind::kBsJobDone:
      // The SNR slot carries the job's queue wait.
      if (!cfg_.sim.bs_capacity.enabled)
        violate(t, "BS job completion with the capacity model disabled");
      if (e.serving_snr_db < 0.0)
        violate(t, "negative BS queue wait " +
                       std::to_string(e.serving_snr_db) + "s");
      break;

    case EventKind::kAdmissionReject:
      // A busy reject answers an outstanding HANDOVER REQUEST, like an
      // ack/reject; the SNR slot carries the (non-negative) backoff hint.
      if (outage_open_ || exec_open_)
        violate(t, "admission busy-reject outside a live idle link");
      if (!prep_open_)
        violate(t, "admission busy-reject without an outstanding "
                   "HANDOVER REQUEST");
      if (!cfg_.sim.bs_capacity.enabled)
        violate(t, "admission busy-reject with the capacity model disabled");
      if (e.serving_snr_db < 0.0)
        violate(t, "negative admission backoff hint " +
                       std::to_string(e.serving_snr_db) + "s");
      break;

    case EventKind::kAdmissionRetry:
      // The source backs off and will re-send: the outstanding request is
      // closed, so the subsequent kPrepRequest is a fresh send.
      if (outage_open_ || exec_open_)
        violate(t, "admission backoff retry outside a live idle link");
      if (!prep_open_)
        violate(t, "admission backoff retry without an outstanding "
                   "HANDOVER REQUEST");
      prep_open_ = false;
      prep_retries_this_attempt_ = 0;
      break;

    case EventKind::kBsCrash:
      if (!cfg_.faults_expected)
        violate(t, "BS crash on a fault-free run");
      // Only a region_outage schedule may stack correlated blackouts;
      // plain crash-restart keeps at most one BS down at a time.
      if (!crashed_cells_.empty() &&
          !cfg_.sim.faults.schedules_region_outage())
        violate(t, "BS crash with another BS already down (cell " +
                       std::to_string(*crashed_cells_.begin()) + ")");
      if (crashed_cells_.count(e.target_cell) > 0)
        violate(t, "BS crash for cell " + std::to_string(e.target_cell) +
                       " that is already down");
      crashed_cells_.insert(e.target_cell);
      break;

    case EventKind::kBsRestart:
      if (crashed_cells_.count(e.target_cell) == 0)
        violate(t, "BS restart for cell " + std::to_string(e.target_cell) +
                       " that was never crashed");
      crashed_cells_.erase(e.target_cell);
      break;

    case EventKind::kContextStale:
      // Stale replies only make sense while re-establishing after a
      // failure (the fetch exists only in outage).
      if (!outage_open_)
        violate(t, "stale-context response outside an outage");
      if (!cfg_.faults_expected)
        violate(t, "stale-context response on a fault-free run");
      break;

    case EventKind::kCascadeInject:
      // Displaced load flooding a surviving neighbor: capacity model on,
      // faults scheduled, and the payload (jobs injected) is positive —
      // zero-job top-ups are never logged.
      if (!cfg_.sim.bs_capacity.enabled)
        violate(t, "cascade injection with the capacity model disabled");
      if (!cfg_.faults_expected)
        violate(t, "cascade injection on a fault-free run");
      if (e.serving_snr_db < 1.0)
        violate(t, "cascade injection with non-positive job payload " +
                       std::to_string(e.serving_snr_db));
      if (crashed_cells_.count(e.target_cell) > 0)
        violate(t, "cascade injection into dead BS " +
                       std::to_string(e.target_cell));
      break;

    case EventKind::kBreakerTrip: {
      // Legal from closed (K-th consecutive failure) or half-open (the
      // probe failed); an already-open breaker cannot trip again.
      if (cfg_.sim.breaker_trip_k <= 0)
        violate(t, "breaker trip with circuit breakers disabled");
      int& st = breaker_state_[e.target_cell];
      if (st == 1)
        violate(t, "breaker trip for cell " + std::to_string(e.target_cell) +
                       " that is already open");
      st = 1;
      ++breakers_open_mirror_;
      break;
    }

    case EventKind::kBreakerProbe: {
      // The half-open probe admission: only an open breaker past its
      // cool-down may admit one.
      if (cfg_.sim.breaker_trip_k <= 0)
        violate(t, "breaker probe with circuit breakers disabled");
      int& st = breaker_state_[e.target_cell];
      if (st != 1)
        violate(t, "breaker probe for cell " + std::to_string(e.target_cell) +
                       " that is not open");
      else
        --breakers_open_mirror_;
      st = 2;
      break;
    }

    case EventKind::kBreakerClose: {
      // Close only on a successful half-open probe.
      if (cfg_.sim.breaker_trip_k <= 0)
        violate(t, "breaker close with circuit breakers disabled");
      int& st = breaker_state_[e.target_cell];
      if (st != 2)
        violate(t, "breaker close for cell " + std::to_string(e.target_cell) +
                       " without a probe in flight");
      st = 0;
      break;
    }
  }

  if (events_this_tick_ == 0) {
    events_tick_min_t_ = events_tick_max_t_ = t;
  } else {
    events_tick_min_t_ = std::min(events_tick_min_t_, t);
    events_tick_max_t_ = std::max(events_tick_max_t_, t);
  }
  ++events_this_tick_;
}

void InvariantChecker::check_tick(const sim::TickView& v) {
  const double t = v.t_s;

  if (have_prev_tick_ && t <= prev_.t_s)
    violate(t, "tick timestamp not strictly increasing (prev " +
                   std::to_string(prev_.t_s) + "s)");
  // Every event since the last tick belongs to *this* tick's timestamp.
  if (events_this_tick_ > 0 &&
      (events_tick_min_t_ < t - kTimeEps ||
       events_tick_max_t_ > t + kTimeEps))
    violate(t, "events emitted between ticks carry a different timestamp "
               "(range " + std::to_string(events_tick_min_t_) + ".." +
               std::to_string(events_tick_max_t_) + "s)");

  if (cfg_.num_cells > 0 &&
      (v.serving < 0 || v.serving >= static_cast<int>(cfg_.num_cells)))
    violate(t, "serving cell " + std::to_string(v.serving) + " out of range");

  // Counter ranges: N310 freezes at the arming threshold, N311 resets the
  // moment it disarms T310.
  if (v.oos_count < 0 || v.oos_count > sim::kN310)
    violate(t, "out-of-sync count " + std::to_string(v.oos_count) +
                   " outside [0, N310=" + std::to_string(sim::kN310) + "]");
  if (v.is_count < 0 || v.is_count >= sim::kN311)
    violate(t, "in-sync count " + std::to_string(v.is_count) +
                   " outside [0, N311=" + std::to_string(sim::kN311) + ")");
  if (v.is_count > 0 && !v.t310_running)
    violate(t, "in-sync counting (N311) without T310 running");

  // Timer/FSM legality: at most one of {outage, execution} holds, T310
  // runs only on a live idle link, and nothing is pending while the link
  // is down or an execution is in flight.
  if (v.t310_running && (v.in_outage || v.executing))
    violate(t, "T310 running outside a live idle link");
  if (v.executing && v.in_outage)
    violate(t, "handover execution while in outage");
  if (v.executing && (v.report_pending || v.command_pending))
    violate(t, "signaling pending during handover execution");
  if (v.in_outage && (v.report_pending || v.command_pending))
    violate(t, "signaling pending during outage");
  if (v.in_outage && (v.oos_count != 0 || v.is_count != 0))
    violate(t, "sync counters not cleared in outage");
  if (v.report_pending && v.command_pending)
    violate(t, "report and command simultaneously in flight for one "
               "handover attempt");
  // Backhaul preparation occupies its own FSM slot: never while the link
  // is down or executing, never overlapping the report or command legs,
  // and never at all when the transport is disabled.
  if (v.prep_pending && (v.in_outage || v.executing))
    violate(t, "handover preparation pending outside a live idle link");
  if (v.prep_pending && (v.report_pending || v.command_pending))
    violate(t, "preparation overlapping another signaling leg for one "
               "handover attempt");
  if (v.prep_pending && !cfg_.sim.backhaul.enabled)
    violate(t, "preparation pending with the backhaul transport disabled");
  if (v.executing != exec_open_)
    violate(t, "tick execution state disagrees with the event stream");
  if (v.in_outage != outage_open_)
    violate(t, "tick outage state disagrees with the event stream");

  // BS capacity: per-tick peak occupancy is physically bounded by
  // slots + queue_capacity, and a crashed cell exists only under faults.
  if (cfg_.sim.bs_capacity.enabled) {
    const int cap_bound =
        cfg_.sim.bs_capacity.slots +
        static_cast<int>(cfg_.sim.bs_capacity.queue_capacity);
    if (v.bs_queue_peak < 0 || v.bs_queue_peak > cap_bound)
      violate(t, "BS queue occupancy " + std::to_string(v.bs_queue_peak) +
                     " outside [0, slots+queue=" +
                     std::to_string(cap_bound) + "]");
  } else if (v.bs_queue_peak != 0) {
    violate(t, "nonzero BS queue occupancy with the capacity model "
               "disabled");
  }
  if (v.crashed_cells != static_cast<int>(crashed_cells_.size()))
    violate(t, "tick crashed-cell count " + std::to_string(v.crashed_cells) +
                   " disagrees with the event stream (" +
                   std::to_string(crashed_cells_.size()) + ")");
  if (!cfg_.faults_expected && v.crashed_cells != 0)
    violate(t, "crashed BS on a fault-free run");
  if (v.breakers_open != breakers_open_mirror_)
    violate(t, "tick open-breaker count " + std::to_string(v.breakers_open) +
                   " disagrees with the event stream (" +
                   std::to_string(breakers_open_mirror_) + ")");
  if (cfg_.sim.breaker_trip_k <= 0 && v.breakers_open != 0)
    violate(t, "open breaker with circuit breakers disabled");

  // Cross-band staleness: ages only accumulate under a pilot fault.
  if (v.estimate_age_s < 0.0)
    violate(t, "negative estimate age " + std::to_string(v.estimate_age_s));
  if (!v.pilot_fault && v.estimate_age_s != 0.0)
    violate(t, "stale estimate age " + std::to_string(v.estimate_age_s) +
                   "s with fresh pilots");
  if (!cfg_.faults_expected && (v.pilot_fault || v.blackout))
    violate(t, "fault flag raised on a fault-free run");
  if (pending_degraded_enter_check_) {
    // The manager entered degraded mode this tick: the estimates it saw
    // must actually have been past the staleness bound.
    if (v.estimate_age_s <= cfg_.staleness_bound_s - kTimeEps)
      violate(t, "degraded-mode entry with estimate age " +
                     std::to_string(v.estimate_age_s) + "s within the " +
                     std::to_string(cfg_.staleness_bound_s) + "s bound");
    pending_degraded_enter_check_ = false;
  }

  // NaN serving SNR is legal only when no radio state was sampled this
  // tick: still in outage, or the tick that re-established.
  if (std::isnan(v.serving_snr_db) && !v.in_outage && !reestablished_this_tick_)
    violate(t, "no serving SNR sampled on a connected tick");

  // T310 arming edge: requires N310 consecutive out-of-sync ticks.
  if (v.t310_running) {
    if (!have_prev_tick_ || !prev_.t310_running) {
      if (v.oos_count < sim::kN310)
        violate(t, "T310 armed after only " + std::to_string(v.oos_count) +
                       " out-of-sync ticks (N310=" +
                       std::to_string(sim::kN310) + ")");
      t310_armed_t_ = t;
    }
  } else {
    t310_armed_t_ = -1.0;
  }

  saw_tick_ = true;
  have_prev_tick_ = true;
  prev_ = v;
  events_this_tick_ = 0;
  reestablished_this_tick_ = false;
}

void InvariantChecker::on_run_end(sim::SimStats& stats) {
  const double t_end = cfg_.sim.duration_s;
  const auto expect_eq = [&](long long got, long long want,
                             const std::string& what) {
    if (got != want)
      violate(t_end, what + ": got " + std::to_string(got) + ", expected " +
                         std::to_string(want));
  };

  using sim::EventKind;
  const long long commands = count(EventKind::kHoCommandDelivered);
  const long long completions = count(EventKind::kHandoverComplete);
  const long long t304 = count(EventKind::kT304Expiry);
  const long long rlf = count(EventKind::kRadioLinkFailure);
  const long long reestablished = count(EventKind::kReestablished);

  // --- Every counter the stats table recounts from the event stream ---
  // Counts and payload sums are exact in a double, and the payload sums
  // accumulate the simulator's own values in its own order, so the
  // comparison is bit-exact.
  sim::for_each_stat([&](const sim::StatField& f, auto field) {
    if (f.recount == sim::StatRecount::kNone) return;
    const auto k = static_cast<std::size_t>(f.source);
    const double want =
        f.recount == sim::StatRecount::kCount ? static_cast<double>(events_[k])
        : f.recount == sim::StatRecount::kPositivePayloads
            ? static_cast<double>(positive_payloads_[k])
            : payload_sums_[k];
    const double got = static_cast<double>(stats.*field);
    if (got != want)
      violate(t_end, "SimStats::" + std::string(f.name) + " = " +
                         format_double(got) + " but the " +
                         sim::event_kind_name(f.source) +
                         " event recount is " + format_double(want));
  });

  // --- Failure and handover conservation ---
  // Every delivered command closed as exactly one completion or T304
  // expiry (or is still in flight at the horizon); every failure is one
  // RLF or T304 event, classified into exactly one Table 2 cause.
  expect_eq(stats.failures, rlf + t304,
            "SimStats::failures vs RLF + T304 events");
  long long by_cause = 0;
  for (const auto& [cause, n] : stats.failures_by_cause) by_cause += n;
  expect_eq(by_cause, stats.failures,
            "failures_by_cause total vs SimStats::failures");
  expect_eq(commands, completions + t304 + (exec_open_ ? 1 : 0),
            "command conservation (attempts = successes + expiries + "
            "in-flight)");
  expect_eq(reestablished, rlf + t304 - (outage_open_ ? 1 : 0),
            "re-establishment conservation (failures = recoveries + open "
            "outage)");
  expect_eq(static_cast<long long>(stats.outage_durations_s.size()),
            reestablished, "outage duration samples vs re-establishments");
  double outage_sum = 0.0;
  for (double d : stats.outage_durations_s) outage_sum += d;
  if (outage_sum != outage_sum_s_)
    violate(t_end, "outage duration sum " + format_double(outage_sum) +
                       "s disagrees with the event stream (" +
                       format_double(outage_sum_s_) + "s)");
  expect_eq(static_cast<long long>(stats.feedback_delays_s.size()),
            count(EventKind::kReportDelivered),
            "feedback delay samples vs delivered reports");
  const long long degraded_open = count(EventKind::kDegradedEnter) -
                                  count(EventKind::kDegradedExit);
  if (degraded_open != 0 && degraded_open != 1)
    violate(t_end, "unbalanced degraded enter/exit events (enters=" +
                       std::to_string(count(EventKind::kDegradedEnter)) +
                       " exits=" +
                       std::to_string(count(EventKind::kDegradedExit)) + ")");
  if (count(EventKind::kFaultStart) < count(EventKind::kFaultEnd))
    violate(t_end, "more fault-window closes than opens");

  // --- Backhaul preparation conservation ---
  if (cfg_.sim.backhaul.enabled) {
    const long long requests = count(EventKind::kPrepRequest);
    const long long retries = count(EventKind::kPrepRetry);
    const long long acks = count(EventKind::kPrepAck);
    const long long outcomes = acks + count(EventKind::kPrepReject);
    // Every delivered command rode an ack, and every ack/reject answers a
    // request the source actually put on the wire (original or retry).
    if (commands > acks)
      violate(t_end, "more delivered commands (" + std::to_string(commands) +
                         ") than prep acks (" + std::to_string(acks) + ")");
    if (outcomes > requests + retries)
      violate(t_end, "more prep outcomes (" + std::to_string(outcomes) +
                         ") than requests sent (" +
                         std::to_string(requests + retries) + ")");
    // Retry-storm bound: the backoff budget caps total resends.
    if (retries > requests * sim::kPrepMaxRetries)
      violate(t_end, "prep retry storm: " + std::to_string(retries) +
                         " retries for " + std::to_string(requests) +
                         " requests (budget " +
                         std::to_string(sim::kPrepMaxRetries) +
                         " per attempt)");
    // Transport conservation: deliveries never exceed what entered the
    // network, and drops never exceed send attempts.
    if (stats.backhaul_delivered >
        stats.backhaul_sent + stats.backhaul_duplicated)
      violate(t_end, "backhaul delivered " +
                         std::to_string(stats.backhaul_delivered) +
                         " frames but only " +
                         std::to_string(stats.backhaul_sent) + "+" +
                         std::to_string(stats.backhaul_duplicated) +
                         " entered the network");
    if (stats.backhaul_dropped_loss + stats.backhaul_dropped_partition +
            stats.backhaul_dropped_queue + stats.backhaul_dropped_crash >
        stats.backhaul_sent + stats.backhaul_duplicated)
      violate(t_end, "backhaul drop counters exceed send attempts");
  }

  // --- BS capacity conservation ---
  const long long crashes = count(EventKind::kBsCrash);
  const long long restarts = count(EventKind::kBsRestart);
  if (restarts > crashes) violate(t_end, "more BS restarts than crashes");
  expect_eq(static_cast<long long>(crashed_cells_.size()), crashes - restarts,
            "open crash windows vs crash/restart events");
  // Every job offered to a station is accounted for exactly once:
  // served, shed at a full queue, flushed by a crash, or still in flight
  // at the horizon. Background filler is excluded from all four.
  expect_eq(stats.bs_jobs_submitted,
            static_cast<long long>(stats.bs_jobs_served) +
                stats.bs_queue_shed + stats.bs_jobs_flushed +
                stats.bs_jobs_inflight_end,
            "BS job conservation (submitted = served + shed + flushed + "
            "in-flight)");
  // --- Circuit-breaker conservation ---
  if (count(EventKind::kBreakerProbe) > count(EventKind::kBreakerTrip))
    violate(t_end, "more breaker probes than trips");
  if (count(EventKind::kBreakerClose) > count(EventKind::kBreakerProbe))
    violate(t_end, "more breaker closes than probes");
  // Load-advertisement staleness contract: the simulator never surfaces
  // an ad older than the configured bound, and the recorded maximum age
  // proves it.
  if (stats.load_ad_age_max_s < 0.0)
    violate(t_end, "negative load-advertisement age " +
                       std::to_string(stats.load_ad_age_max_s) + "s");
  if (cfg_.sim.load_ad_staleness_s > 0.0 &&
      stats.load_ad_age_max_s > cfg_.sim.load_ad_staleness_s + kTimeEps)
    violate(t_end, "surfaced load advertisement aged " +
                       std::to_string(stats.load_ad_age_max_s) +
                       "s beyond the " +
                       std::to_string(cfg_.sim.load_ad_staleness_s) +
                       "s staleness bound");
  if (cfg_.sim.load_ad_staleness_s <= 0.0 &&
      (stats.load_ads_received != 0 || stats.load_ad_age_max_s != 0.0))
    violate(t_end, "load-advertisement activity with advertisement "
                   "disabled");

  // --- Loop accounting, recomputed independently from the event stream ---
  expect_eq(stats.loop_handovers, loop_handovers_,
            "SimStats::loop_handovers vs event-stream recount");
  expect_eq(stats.loop_episodes, loop_episodes_,
            "SimStats::loop_episodes vs event-stream recount");
  if (cfg_.expect_loop_free && persistent_episodes_ > 0)
    violate(t_end, "Theorem-2 violation: " +
                       std::to_string(persistent_episodes_) +
                       " persistent ping-pong episode(s) under a repaired "
                       "pure-A3 policy");

  // --- Stats sanity ---
  if (stats.failure_ratio() < 0.0 || stats.failure_ratio() > 1.0)
    violate(t_end,
            "failure ratio " + std::to_string(stats.failure_ratio()) +
                " outside [0, 1]");
  for (double d : stats.outage_durations_s)
    if (!(d > 0.0) || d > cfg_.sim.duration_s + kTimeEps)
      violate(t_end, "outage duration " + std::to_string(d) +
                         "s outside (0, horizon]");
  for (double d : stats.feedback_delays_s)
    if (!(d >= 0.0) || d > cfg_.sim.duration_s + kTimeEps)
      violate(t_end, "feedback delay " + std::to_string(d) +
                         "s outside [0, horizon]");
  if (stats.degraded_time_s < 0.0 ||
      stats.degraded_time_s > cfg_.sim.duration_s + kTimeEps)
    violate(t_end, "degraded time " + std::to_string(stats.degraded_time_s) +
                       "s outside [0, horizon]");
  if (stats.downtime_fraction < 0.0 || stats.downtime_fraction > 1.0)
    violate(t_end, "downtime fraction outside [0, 1]");
  if (!cfg_.faults_expected &&
      (count(EventKind::kFaultStart) > 0 ||
       count(EventKind::kDegradedEnter) > 0 || stats.degraded_time_s > 0.0))
    violate(t_end, "fault/degraded activity recorded on a fault-free run");

  // --- TCP sequence/ack sanity over every recovered outage ---
  // Whatever phase of the RTO cycle the outage lands in, the stall covers
  // the outage and exceeds it by at most one maximal residual backoff.
  const sim::TcpConfig tcp;
  for (double outage : stats.outage_durations_s) {
    for (double phase : {0.0, 0.37, 0.93}) {
      const double stall = sim::tcp_stall_for_outage(outage, tcp, phase);
      if (stall < outage - kTimeEps ||
          stall > outage + tcp.max_rto_s + sim::kTcpRtt_s +
                      sim::kTcpBaseRto_s + kTimeEps)
        violate(t_end, "TCP stall " + std::to_string(stall) +
                           "s out of bounds for a " + std::to_string(outage) +
                           "s outage at phase " + std::to_string(phase));
    }
  }

  stats.invariant_violations = violation_count_;
}

std::vector<std::string> fleet_invariant_report(const sim::FleetResult& r) {
  std::vector<std::string> out;
  const auto flag = [&out](const std::string& what) { out.push_back(what); };
  if (r.per_ue.empty()) {
    flag("fleet result carries no per-UE stats");
    return out;
  }
  const int n = static_cast<int>(r.per_ue.size());

  // --- Per-UE handover conservation + event-log hygiene ---
  for (int k = 0; k < n; ++k) {
    const auto& s = r.per_ue[static_cast<std::size_t>(k)];
    const std::string who = "UE " + std::to_string(k);
    if (s.handovers < 0 || s.successful_handovers < 0 || s.t304_expiries < 0)
      flag(who + ": negative handover counter");
    if (s.successful_handovers + s.t304_expiries > s.handovers)
      flag(who + ": successes (" + std::to_string(s.successful_handovers) +
           ") + T304 expiries (" + std::to_string(s.t304_expiries) +
           ") exceed attempts (" + std::to_string(s.handovers) + ")");
    double prev_t = 0.0;
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      const auto& e = s.events[i];
      if (e.ue != k) {
        flag(who + ": event " + std::to_string(i) + " tagged ue=" +
             std::to_string(e.ue));
        break;
      }
      if (i > 0 && e.t_s < prev_t) {
        flag(who + ": event log regresses from t=" + std::to_string(prev_t) +
             " to t=" + std::to_string(e.t_s));
        break;
      }
      prev_t = e.t_s;
    }
  }

  // --- Aggregate laws: each scalar is the per-UE fold under its stats
  // --- table merge rule, and world-global counters agree across UEs ---
  const auto& a = r.aggregate;
  sim::for_each_stat([&](const sim::StatField& f, auto field) {
    const std::string name = f.name;
    const auto want = sim::fold_stat(f.merge, r.per_ue, field);
    if (a.*field != want)
      flag("aggregate." + name + " = " + format_double(a.*field) +
           " but the per-UE " +
           (f.merge == sim::StatMerge::kSum ? "sum" : "fold") + " = " +
           format_double(want));
    if (f.merge != sim::StatMerge::kWorld) return;
    for (int k = 1; k < n; ++k) {
      const auto v = r.per_ue[static_cast<std::size_t>(k)].*field;
      if (v != r.per_ue[0].*field) {
        flag(name + " disagree across UEs: UE 0 saw " +
             format_double(r.per_ue[0].*field) + ", UE " + std::to_string(k) +
             " saw " + format_double(v));
        break;
      }
    }
  });

  // --- Merged event log: no cross-UE regression, exact per-UE recovery ---
  std::size_t total_events = 0;
  for (const auto& s : r.per_ue) total_events += s.events.size();
  if (a.events.size() != total_events) {
    flag("merged log has " + std::to_string(a.events.size()) +
         " events but per-UE logs total " + std::to_string(total_events));
    return out;
  }
  std::vector<std::size_t> next(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& e = a.events[i];
    if (i > 0 && e.t_s < a.events[i - 1].t_s) {
      flag("merged log regresses at index " + std::to_string(i) + " (t=" +
           std::to_string(e.t_s) + " after t=" +
           std::to_string(a.events[i - 1].t_s) + ")");
      break;
    }
    if (e.ue < 0 || e.ue >= n) {
      flag("merged log event " + std::to_string(i) + " tagged unknown ue=" +
           std::to_string(e.ue));
      break;
    }
    const auto& own = r.per_ue[static_cast<std::size_t>(e.ue)].events;
    auto& cursor = next[static_cast<std::size_t>(e.ue)];
    if (cursor >= own.size()) {
      flag("merged log has extra events for UE " + std::to_string(e.ue));
      break;
    }
    const auto& want = own[cursor];
    if (e.t_s != want.t_s || e.kind != want.kind ||
        e.serving_cell != want.serving_cell ||
        e.target_cell != want.target_cell ||
        e.serving_snr_db != want.serving_snr_db) {
      flag("merged log event " + std::to_string(i) + " for UE " +
           std::to_string(e.ue) + " does not match that UE's log entry " +
           std::to_string(cursor) + " — per-UE order not preserved");
      break;
    }
    ++cursor;
  }
  return out;
}

}  // namespace rem::testkit
