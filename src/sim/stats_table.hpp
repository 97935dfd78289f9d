// The one schema of SimStats' scalar counters. Each row of
// REM_SIM_STATS_TABLE describes one field and everything the rest of the
// code needs to know about it:
//
//   type     int, double, or std::uint64_t
//   name     the SimStats member, which is also its golden-digest key
//   merge    how a fleet's per-UE values fold into the aggregate
//            (StatMerge; merge_fleet_stats applies it and
//            testkit::fleet_invariant_report checks it)
//   digest   whether the golden digest carries the field (StatDigest)
//   metric   the obs counter SpanTracer publishes it under ("" = none)
//   recount  optional: how testkit::InvariantChecker recounts the field
//            from the event stream (StatRecount), and from which
//            EventKind
//
// Rows are in golden-digest key order, so the digests stay byte-identical.
// A new counter is one row here plus its increment site. The five
// container fields (failures_by_cause, the three sample vectors, events)
// stay hand-written in SimStats.
#pragma once

#include "sim/events.hpp"

#include <cstdint>

namespace rem::sim {

/// How per-UE values of one field fold into a fleet aggregate.
enum class StatMerge {
  kSum,          ///< additive per-UE counter
  kMax,          ///< a maximum over UEs (e.g. oldest load ad surfaced)
  kWorld,        ///< world-global: every UE counts the same world events,
                 ///< so all UEs agree and the fleet keeps that one value
  kMean,         ///< per-UE mean over the same ticks: fleet mean of means
  kMeanNonzero,  ///< mean over the UEs that set it (0 means unset)
};

/// Whether the golden digest carries a field.
enum class StatDigest {
  kAlways,
  kNonzero,  ///< only when non-zero, so older digests stay byte-identical
  kOmit,
};

/// How the invariant checker recounts a field from the event stream.
enum class StatRecount {
  kNone,
  kCount,             ///< number of `source` events
  kPayloadSum,        ///< bit-exact sum of their serving_snr_db payloads
  kPositivePayloads,  ///< number of them with a positive payload
};

/// One table row, as seen by for_each_stat visitors.
struct StatField {
  const char* name;
  StatMerge merge;
  StatDigest digest;
  const char* metric;
  StatRecount recount = StatRecount::kNone;
  EventKind source = EventKind{};  ///< meaningful unless recount is kNone
};

// clang-format off
#define REM_SIM_STATS_TABLE(X)                                                                      \
  /* Horizon, handover outcomes, loops */                                                           \
  X(double,        sim_time_s,                 kWorld,       kOmit,    "")                          \
  X(int,           handovers,                  kSum,         kAlways,  "sim.handover.attempts",     \
    kCount, kHoCommandDelivered)              /* attempts: success + failure */                     \
  X(int,           successful_handovers,       kSum,         kAlways,  "sim.handover.complete",     \
    kCount, kHandoverComplete)                                                                      \
  X(int,           failures,                   kSum,         kAlways,  "") /* RLF + T304 */         \
  X(int,           loop_handovers,             kSum,         kAlways,  "")                          \
  X(int,           loop_episodes,              kSum,         kAlways,  "")                          \
  X(int,           intra_freq_loop_episodes,   kSum,         kAlways,  "")                          \
  X(int,           conflict_loop_episodes,     kSum,         kAlways,  "") /* policy conflict */    \
  X(int,           conflict_loop_handovers,    kSum,         kAlways,  "")                          \
  X(int,           intra_freq_conflict_loops,  kSum,         kOmit,    "")                          \
  /* Recovery paths (fault injection / hardened FSM) */                                             \
  X(int,           t304_expiries,              kSum,         kAlways,  "sim.handover.t304_expiry",  \
    kCount, kT304Expiry)                                                                            \
  X(int,           t304_fallback_success,      kSum,         kAlways,  "")                          \
  X(int,           report_retransmits,         kSum,         kAlways,  "sim.report.retransmits",    \
    kCount, kReportRetransmit)                                                                      \
  X(int,           duplicate_commands,         kSum,         kAlways,  "sim.command.duplicates",    \
    kCount, kHoCommandDuplicate)                                                                    \
  /* Backhaul preparation and context fetch (rem::net transport) */                                 \
  X(int,           prep_requests,              kSum,         kAlways,  "sim.prep.requests",         \
    kCount, kPrepRequest)                     /* first sends only */                                \
  X(int,           prep_retries,               kSum,         kAlways,  "sim.prep.retries",          \
    kCount, kPrepRetry)                                                                             \
  X(int,           prep_acks,                  kSum,         kAlways,  "sim.prep.acks",             \
    kCount, kPrepAck)                                                                               \
  X(int,           prep_rejects,               kSum,         kAlways,  "sim.prep.rejects",          \
    kCount, kPrepReject)                                                                            \
  X(int,           prep_fallbacks,             kSum,         kAlways,  "sim.prep.fallbacks",        \
    kCount, kPrepFallback)                                                                          \
  X(int,           prep_failures,              kSum,         kAlways,  "sim.prep.failures",         \
    kCount, kPrepFailed)                                                                            \
  X(double,        prep_rtt_sum_s,             kSum,         kAlways,  "",                          \
    kPayloadSum, kPrepAck)                    /* summed request->ack round trips */                 \
  X(int,           context_fetch_failures,     kSum,         kAlways,  "sim.ctx_fetch.failures",    \
    kCount, kContextFetchFailed)                                                                    \
  /* Transport totals from net::TransportStats (all on UE 0 in a fleet) */                          \
  X(std::uint64_t, backhaul_sent,              kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_delivered,         kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_dropped_loss,      kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_dropped_partition, kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_dropped_queue,     kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_dropped_crash,     kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_duplicated,        kSum,         kAlways,  "")                          \
  X(std::uint64_t, backhaul_reordered,         kSum,         kAlways,  "")                          \
  X(double,        backhaul_latency_sum_s,     kSum,         kAlways,  "")                          \
  /* BS capacity (sim/bs_capacity.hpp), background jobs excluded:                                   \
     submitted == served + shed + flushed + inflight_end */                                         \
  X(int,           bs_jobs_submitted,          kSum,         kAlways,  "")                          \
  X(int,           bs_jobs_served,             kSum,         kAlways,  "sim.bs.jobs_served",        \
    kCount, kBsJobDone)                                                                             \
  X(int,           bs_jobs_queued,             kSum,         kAlways,  "",                          \
    kPositivePayloads, kBsJobDone)            /* served jobs that had to wait */                    \
  X(int,           bs_queue_shed,              kSum,         kAlways,  "sim.bs.queue_shed",         \
    kCount, kBsQueueShed)                                                                           \
  X(int,           bs_jobs_flushed,            kSum,         kAlways,  "") /* lost to a crash */    \
  X(int,           bs_jobs_inflight_end,       kSum,         kAlways,  "")                          \
  X(double,        bs_queue_wait_sum_s,        kSum,         kAlways,  "",                          \
    kPayloadSum, kBsJobDone)                                                                        \
  X(int,           admission_rejects,          kSum,         kAlways,  "sim.bs.admission_rejects",  \
    kCount, kAdmissionReject)                                                                       \
  X(int,           admission_backoff_retries,  kSum,         kAlways,  "sim.bs.admission_retries",  \
    kCount, kAdmissionRetry)                                                                        \
  X(int,           bs_crashes,                 kWorld,       kAlways,  "sim.bs.crashes",            \
    kCount, kBsCrash)                         /* crash windows + region members */                  \
  X(int,           bs_crash_dropped_msgs,      kSum,         kAlways,  "")                          \
  X(int,           stale_context_responses,    kSum,         kAlways,  "sim.bs.stale_context",      \
    kCount, kContextStale)                                                                          \
  /* Correlated faults and cascade resilience */                                                    \
  X(int,           cascade_jobs_injected,      kWorld,       kNonzero, "sim.cascade.jobs_injected", \
    kPayloadSum, kCascadeInject)                                                                    \
  X(int,           cascade_activations,        kWorld,       kNonzero, "sim.cascade.activations",   \
    kCount, kCascadeInject)                                                                         \
  X(int,           breaker_trips,              kSum,         kNonzero, "sim.breaker.trips",         \
    kCount, kBreakerTrip)                                                                           \
  X(int,           breaker_probes,             kSum,         kNonzero, "sim.breaker.probes",        \
    kCount, kBreakerProbe)                                                                          \
  X(int,           breaker_closes,             kSum,         kNonzero, "sim.breaker.closes",        \
    kCount, kBreakerClose)                                                                          \
  X(int,           breaker_skips,              kSum,         kNonzero, "") /* hidden while open */  \
  X(int,           load_ads_received,          kSum,         kNonzero, "")                          \
  X(int,           storm_jitter_applied,       kSum,         kNonzero, "")                          \
  X(double,        load_ad_age_max_s,          kMax,         kNonzero, "") /* oldest ad used */     \
  /* Degraded mode, data plane (Sec. 8), the checker's verdict */                                   \
  X(int,           degraded_enters,            kSum,         kAlways,  "sim.degraded.enters",       \
    kCount, kDegradedEnter)                                                                         \
  X(double,        degraded_time_s,            kSum,         kAlways,  "")                          \
  X(double,        avg_handover_interval_s,    kMeanNonzero, kAlways,  "")                          \
  X(double,        mean_throughput_bps,        kMean,        kAlways,  "")                          \
  X(double,        downtime_fraction,          kMean,        kAlways,  "")                          \
  X(int,           invariant_violations,       kSum,         kAlways,  "")
// clang-format on

struct SimStats;

/// Calls `f(field, &SimStats::member)` once per table row, in table
/// order. The member pointer carries the row's type, so one generic
/// lambda reads or writes the field of any SimStats through it.
template <class F, class Stats = SimStats>
void for_each_stat(F&& f) {
  using enum StatMerge;
  using enum StatDigest;
  using enum StatRecount;
  using enum EventKind;
#define REM_STAT_VISIT(type, name, merge, digest, metric, ...) \
  f(StatField{#name, merge, digest, metric __VA_OPT__(, __VA_ARGS__)}, &Stats::name);
  REM_SIM_STATS_TABLE(REM_STAT_VISIT)
#undef REM_STAT_VISIT
}

}  // namespace rem::sim
