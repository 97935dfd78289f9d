// Per-BS control-plane capacity model: a small bank of processing slots
// plus a bounded FIFO signaling queue in front of them. Prep-handshake
// admission, context-fetch lookups, and (network-driven) RRC decisions
// each occupy a slot for a deterministic service time; jobs arriving while
// every slot is busy wait in the queue, and jobs arriving with the queue
// full are shed — an explicit reject the simulator classifies into
// SimStats, never a silent drop.
//
// Determinism: service times are fixed per job kind (scaled by the
// overload inflation factor the simulator derives from the fault window),
// so a job's start and completion times are fully determined at submit
// time. The model draws no randomness and therefore leaves the simulator's
// forked-RNG order untouched — fault-free runs stay bit-identical across
// thread counts and the golden corpus stays replayable.
#pragma once

#include "net/message.hpp"

#include <cstddef>
#include <optional>
#include <vector>

namespace rem::sim {

/// What a BS processing slot is busy doing. kBackground models load from
/// other (unsimulated) UEs during a kBsOverload window; background jobs
/// consume capacity but are excluded from the UE-visible job statistics.
enum class BsJobKind {
  kRrcDecision,    ///< serving BS runs the network-side handover decision
  kPrepAdmission,  ///< target BS admits (or rejects) a HANDOVER REQUEST
  kContextLookup,  ///< old serving BS services a context fetch
  kBackground,     ///< synthetic other-UE load during overload windows
};

/// Knobs for the per-BS capacity model. Defaults keep the uncontended
/// path fast (a couple of ms of service latency per signaling leg) so
/// fault-free behavior is indistinguishable from the infinite-capacity
/// model apart from those small, deterministic processing delays.
struct BsCapacityConfig {
  bool enabled = true;
  /// Concurrent processing slots per BS.
  int slots = 2;
  /// Bounded FIFO signaling queue in front of the slots; a job that would
  /// have to wait while `queue_capacity` jobs are already waiting is shed.
  std::size_t queue_capacity = 8;
  /// Service time for a HANDOVER REQUEST admission check.
  double prep_service_s = 0.002;
  /// Service time for a context-fetch lookup.
  double ctx_service_s = 0.002;
  /// Service time of one synthetic background job (overload windows).
  double background_service_s = 0.020;
  /// Admission control: a target BS whose load fraction
  /// (busy + waiting) / (slots + queue_capacity) is at or above this
  /// threshold rejects HANDOVER REQUEST with a busy indication instead of
  /// queueing it.
  double admission_load_threshold = 0.6;
  /// Backoff hint carried in the busy-reject: the source should wait this
  /// long before re-attempting admission at the same target.
  double reject_backoff_hint_s = 0.08;
  /// How many hint-spaced re-attempts the source FSM makes after busy
  /// rejects (per handover attempt) before declaring preparation failed.
  int admission_max_retries = 8;
};

/// Throws std::invalid_argument naming the offending field when a
/// BsCapacityConfig is unusable (non-positive slots/service times,
/// threshold outside (0, 1], negative hint or retry budget).
void validate(const BsCapacityConfig& cfg);

/// One scheduled unit of BS work. `start_s - submit_s` is the queue wait
/// (zero when a slot was free at submission).
struct BsJob {
  BsJobKind kind = BsJobKind::kBackground;
  double submit_s = 0.0;
  double start_s = 0.0;
  double done_s = 0.0;
  /// The signaling message that spawned the job (admission / context
  /// lookup); unused for decision and background jobs.
  net::BackhaulMessage msg;
  /// Owning UE for statistics attribution in fleet runs; 0 in single-UE
  /// runs, meaningless for background jobs.
  int ue = 0;
};

/// A single base station's processing slots + bounded FIFO queue.
///
/// Because service times are deterministic, submit() resolves the whole
/// schedule immediately: it either returns the job with its start/done
/// times filled in, or std::nullopt when the queue is full (the shed
/// case). Completed jobs are handed back, in completion order, through
/// take_completed() so the simulator can run their continuations (send
/// the admission reply, mark the decision ready, ...).
class BsStation {
 public:
  BsStation(int slots, std::size_t queue_capacity);

  /// Schedule a job at time `t` with the given service time, attributed
  /// to UE `ue` (fleet statistics routing). Returns the scheduled job, or
  /// std::nullopt when it would have to wait and the queue is already at
  /// capacity (shed).
  std::optional<BsJob> submit(double t, BsJobKind kind, double service_s,
                              const net::BackhaulMessage& msg = {},
                              int ue = 0);

  /// Jobs whose service completed at or before `t`, ordered by completion
  /// time (ties broken by submission order). Each job is returned once.
  std::vector<BsJob> take_completed(double t);

  /// Jobs still scheduled (busy or waiting) at time `t`, background
  /// included — the physical occupancy the queue bound applies to.
  int occupancy(double t) const;

  /// Jobs waiting for a slot (start_s > t).
  int waiting(double t) const;

  /// occupancy / (slots + queue_capacity), the admission-control signal.
  double load(double t) const;

  /// Crash: every scheduled job is lost and all slots reset to idle.
  /// Returns the flushed non-background jobs, in submission order, so a
  /// fleet simulation can attribute each loss to its owning UE.
  std::vector<BsJob> flush_jobs();

  /// Non-background jobs not yet returned by take_completed, in
  /// submission order: the end-of-run in-flight jobs
  /// (SimStats::bs_jobs_inflight_end), attributed per UE.
  std::vector<BsJob> unfinished_jobs() const;

 private:
  int slots_ = 1;
  std::size_t queue_capacity_ = 0;
  std::vector<double> slot_free_s_;
  /// Scheduled, not yet taken via take_completed, in submission order.
  std::vector<BsJob> jobs_;
};

}  // namespace rem::sim
