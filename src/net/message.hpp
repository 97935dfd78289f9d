// Inter-BS control-plane messages for the backhaul transport (rem::net).
//
// Handover preparation and context transfer between base stations ride a
// simulated network, not a function call. BackhaulNetwork carries each
// message as a plain value: the faults it models (loss, delay,
// reordering, duplication, partitions, crash drops) act on whole
// messages, and nothing outside the process ever reads their bytes.
#pragma once

#include <cstdint>

namespace rem::net {

/// X2-style control-plane message types carried between base stations.
enum class MsgType : std::uint8_t {
  kHandoverRequest = 1,  ///< serving BS asks the target to prepare
  kHandoverAck = 2,      ///< target admitted the handover (prep done)
  kHandoverReject = 3,   ///< target refused admission
  kContextFetch = 4,     ///< re-establishment BS asks for the UE context
  kContextResponse = 5,  ///< old serving BS returns the UE context
  kHandoverRejectBusy = 6,  ///< target overloaded: admission control
                            ///< rejected the request; payload carries the
                            ///< backoff hint in seconds
  kContextStale = 7,     ///< old serving BS restarted and lost the UE
                         ///< context; the fetched state would be stale
};

/// One backhaul message. `seq` identifies the transaction: replies echo
/// the request's sequence number, so the sender counts an answer only
/// while that request is still outstanding and discards stale or
/// duplicated ones.
struct BackhaulMessage {
  std::uint64_t seq = 0;
  MsgType type = MsgType::kHandoverRequest;
  std::int32_t src_cell = -1;     ///< originating cell index (-1 = n/a)
  std::int32_t dst_cell = -1;     ///< destination cell index (-1 = n/a)
  std::int32_t target_cell = -1;  ///< handover/context subject cell
  /// UE the transaction concerns (X2 messages carry a UE id on real
  /// links). Replies echo the request's ue, so a fleet simulation can
  /// route every answer back to the owning UE without a side table.
  /// Always 0 in single-UE runs.
  std::int32_t ue = 0;
  double payload = 0.0;           ///< type-specific (e.g. admission RSRP)
  /// Sender's control-plane load advertisement, piggybacked on every
  /// message: utilization of the sending BS in [0, 1], or -1 when the
  /// sender does not advertise (load advertisement disabled, or the
  /// sender is not a BS). Receivers treat anything < 0 as "no ad".
  double load = -1.0;
};

}  // namespace rem::net
