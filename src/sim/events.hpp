// Signaling event records — the simulator's equivalent of the paper's
// MobileInsight captures: one timestamped row per control-plane event,
// exportable as CSV (trace/eventlog.hpp) for offline analysis.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rem::sim {

enum class EventKind {
  kMeasurementTriggered,  ///< policy fired, feedback generation started
  kReportDelivered,       ///< measurement report reached the base station
  kReportLost,            ///< report retransmissions exhausted
  kHoCommandDelivered,    ///< handover command reached the client
  kHoCommandLost,         ///< command lost in delivery
  kHandoverComplete,      ///< client connected to the target
  kRadioLinkFailure,      ///< T310 expired, connectivity lost
  kReestablished,         ///< connection re-established after RLF
  kFaultStart,            ///< fault window opened (target_cell = FaultKind)
  kFaultEnd,              ///< fault window closed (target_cell = FaultKind)
  kReportRetransmit,      ///< lost report re-sent (bounded backoff)
  kT304Expiry,            ///< handover execution failed at the target
  kHoCommandDuplicate,    ///< stale duplicate command executed instead
  kDegradedEnter,         ///< manager fell back to direct measurement
  kDegradedExit,          ///< manager resumed cross-band estimation
  kPrepRequest,           ///< HANDOVER REQUEST sent over the backhaul
  kPrepRetry,             ///< preparation timed out, request re-sent
  kPrepAck,               ///< target admitted (serving_snr_db = prep RTT s)
  kPrepReject,            ///< target refused admission
  kPrepFallback,          ///< preparation switched to the fallback target
  kPrepFailed,            ///< preparation exhausted retries and fallbacks
  kContextFetchFailed,    ///< context fetch exhausted retries in outage
  kBsQueueShed,           ///< BS signaling queue full: job explicitly shed
                          ///< (target_cell = station, snr = load fraction)
  kBsJobDone,             ///< BS job serviced (target_cell = station,
                          ///< serving_snr_db = queue wait seconds)
  kAdmissionReject,       ///< target busy-rejected HANDOVER REQUEST
                          ///< (serving_snr_db = backoff hint seconds)
  kAdmissionRetry,        ///< source honors the backoff hint and re-sends
  kBsCrash,               ///< BS died (target_cell = victim cell index)
  kBsRestart,             ///< BS came back stateless (target_cell = victim)
  kContextStale,          ///< restarted BS answered a context fetch with a
                          ///< stale-context indication
  kCascadeInject,         ///< cascade overload topped up a surviving
                          ///< neighbor of a dead BS (target_cell = station,
                          ///< serving_snr_db = jobs injected)
  kBreakerTrip,           ///< per-target circuit breaker opened
                          ///< (target_cell = tripped target)
  kBreakerProbe,          ///< breaker cool-down elapsed: half-open probe
                          ///< preparation allowed (target_cell = target)
  kBreakerClose,          ///< half-open probe succeeded, breaker closed
                          ///< (target_cell = target)
};

/// Number of EventKind values (they run 0 .. kNumEventKinds - 1).
constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kBreakerClose) + 1;

/// Stable identifier used in CSV logs. Throws std::invalid_argument on a
/// value outside the enum instead of returning a placeholder.
std::string event_kind_name(EventKind k);

struct SignalingEvent {
  double t_s = 0.0;
  EventKind kind = EventKind::kMeasurementTriggered;
  int serving_cell = -1;
  int target_cell = -1;      ///< -1 when not applicable
  double serving_snr_db = 0.0;
  /// Owning UE (fleet runs); always 0 in single-UE runs. Global events
  /// (fault edges, BS crash/restart) are logged once per UE, each copy
  /// stamped with that UE's id and serving cell.
  int ue = 0;
};

using EventLog = std::vector<SignalingEvent>;

}  // namespace rem::sim
