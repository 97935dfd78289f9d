// Inter-BS control-plane messages for the backhaul transport (rem::net).
//
// Handover preparation and context transfer between base stations ride a
// real (simulated) network, not a function call, so every message has a
// wire format: a fixed-size framed encoding with magic, version, and an
// FNV-1a checksum. The codec is load-bearing — BackhaulNetwork encodes at
// send() and decodes at poll(), so a corrupted frame can never silently
// become a well-formed message. decode_message() follows the repo's
// reject-with-context convention: malformed input throws
// std::runtime_error naming the offending field and value, never returns
// a guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

constexpr std::size_t kNumMsgTypes = 7;

/// One backhaul message. `seq` identifies the transaction: replies echo
/// the request's sequence number so the sender can match answers to
/// outstanding requests and discard stale or duplicated ones
/// (idempotent receive via SequenceTracker).
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
  /// frame: utilization of the sending BS in [0, 1], or -1 when the
  /// sender does not advertise (load advertisement disabled, or the
  /// sender is not a BS). Receivers treat anything < 0 as "no ad".
  double load = -1.0;
};

/// Wire framing: magic(2) version(1) type(1) seq(8) src(4) dst(4)
/// target(4) ue(4) payload(8) load(8) checksum(4), little-endian,
/// 48 bytes total. The checksum is 32-bit FNV-1a over every preceding
/// byte. Version 2 added the ue field; version 3 added the piggybacked
/// load advertisement. Older versions are rejected like any other
/// foreign version — the transport never mixes versions in flight.
constexpr std::size_t kFrameSize = 48;
constexpr std::uint16_t kFrameMagic = 0x5242;  // "RB" (REM backhaul)
constexpr std::uint8_t kFrameVersion = 3;

/// Encode one message into its framed wire form (always kFrameSize bytes).
std::vector<std::uint8_t> encode_message(const BackhaulMessage& m);

/// Decode one frame. Throws std::runtime_error with reject context on any
/// malformation: short/long frame, bad magic, unsupported version,
/// unknown type, cell index below -1, or checksum mismatch.
BackhaulMessage decode_message(const std::uint8_t* data, std::size_t len);

inline BackhaulMessage decode_message(const std::vector<std::uint8_t>& f) {
  return decode_message(f.data(), f.size());
}

}  // namespace rem::net
