// Deterministic discrete-event backhaul transport between base stations.
//
// BackhaulNetwork models the inter-BS control-plane link the way INET/ns-3
// style simulators do — as a seeded message queue with a per-link latency
// distribution (base + uniform jitter), random loss, reordering,
// duplication, and a bounded queue that drops on overload — while keeping
// the repo's determinism contract: every stochastic choice draws from the
// network's own forked Rng at send() time, in a fixed order, so identical
// (config, seed, send sequence) triples replay the exact same delivery
// timeline on any thread count. Fault windows (sim::FaultInjector's
// backhaul classes) enter as per-send overrides: extra loss probability,
// extra one-way delay, or a partition that drops everything at the sender.
//
// Messages stay values end to end: each in-flight entry holds the
// BackhaulMessage itself.
#pragma once

#include "common/rng.hpp"
#include "net/message.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rem::net {

/// Per-link transport model. Probabilities are per message; latency is
/// `base_latency_s` plus a uniform draw in [0, jitter_s). Validated at
/// BackhaulNetwork construction (reject-with-context on nonsense).
struct BackhaulConfig {
  /// Master switch: when false the simulator falls back to instantaneous,
  /// infallible preparation (the pre-backhaul behaviour).
  bool enabled = true;
  double base_latency_s = 0.004;  ///< one-way propagation + switching
  double jitter_s = 0.002;        ///< uniform extra delay in [0, jitter_s)
  double loss_prob = 0.0;         ///< ambient per-message loss
  double reorder_prob = 0.0;      ///< chance of an extra reorder delay
  double reorder_extra_s = 0.006; ///< uniform extra delay when reordered
  double duplicate_prob = 0.0;    ///< chance the frame is delivered twice
  std::size_t queue_capacity = 64; ///< in-flight cap; overload drops
  /// Per-link asymmetry: messages flowing "down-corridor" (dst_cell <
  /// src_cell — the return path of a prep handshake toward the serving BS)
  /// have their whole one-way delay (base + jitter + spikes + reorder
  /// extra) multiplied by this factor. Models forward/return backhaul
  /// links provisioned differently along the deployment; 1.0 (the
  /// default) is exactly symmetric and leaves the delivery timeline
  /// bit-identical to the pre-asymmetry transport. Draw order is
  /// unaffected either way. Must be > 0.
  double reverse_latency_scale = 1.0;
};

/// Monotonic transport counters, mirrored into SimStats at end of run.
struct TransportStats {
  std::uint64_t sent = 0;               ///< send() calls (incl. drops)
  std::uint64_t delivered = 0;          ///< frames handed out by poll()
  std::uint64_t dropped_loss = 0;       ///< lost to the loss probability
  std::uint64_t dropped_partition = 0;  ///< dropped while partitioned
  std::uint64_t dropped_queue = 0;      ///< dropped on queue overload
  std::uint64_t dropped_crash = 0;      ///< flushed when a BS crashed
  std::uint64_t duplicated = 0;         ///< extra copies injected
  std::uint64_t reordered = 0;          ///< frames given a reorder delay
  double latency_sum_s = 0.0;           ///< summed over delivered frames
};

/// Seeded inter-BS message transport (see the file-top comment). Not
/// thread-safe; one instance per simulation run, like the simulator's own
/// Rng.
class BackhaulNetwork {
 public:
  /// Validates `cfg` (latency > 0, probabilities in [0,1], non-negative
  /// jitter/reorder delay, capacity >= 1), throwing std::invalid_argument
  /// naming the offending field. The Rng is owned and advanced only by
  /// this network, so other subsystems' draw sequences are unaffected.
  BackhaulNetwork(const BackhaulConfig& cfg, common::Rng rng);

  /// Submit one message at simulated time `now_s`. `extra_loss_prob` adds
  /// to the ambient loss probability (saturating at 1), `extra_delay_s`
  /// adds one-way latency, and `partitioned` drops the message outright
  /// without consuming any random draws (partitions are deterministic).
  /// Returns whether the message was queued (duplicates count as queued
  /// once); a false return means the message is gone — senders recover
  /// via their own timeout/retry machinery, never via transport feedback.
  bool send(double now_s, const BackhaulMessage& msg,
            double extra_loss_prob = 0.0, double extra_delay_s = 0.0,
            bool partitioned = false);

  /// Deliver every message due at or before `now_s`, sorted by (delivery
  /// time, send order) so simultaneous deliveries have a deterministic
  /// order.
  std::vector<BackhaulMessage> poll(double now_s);

  /// A BS crash takes its half of every in-flight exchange down with it:
  /// drop all queued messages whose source or destination is `cell`
  /// (counted as dropped_crash). Returns how many were dropped.
  /// Draws no randomness — crash drops are deterministic, like partitions.
  std::size_t drop_in_flight_for_cell(std::int32_t cell);

  const TransportStats& stats() const { return stats_; }
  std::size_t in_flight() const { return queue_.size(); }

 private:
  struct InFlight {
    double deliver_at_s = 0.0;
    std::uint64_t order = 0;  ///< send order, tie-break for equal times
    double sent_at_s = 0.0;
    BackhaulMessage msg;
  };

  double draw_delay(double extra_delay_s);

  BackhaulConfig cfg_;
  common::Rng rng_;
  std::vector<InFlight> queue_;
  std::uint64_t next_order_ = 0;
  TransportStats stats_;
};

}  // namespace rem::net
