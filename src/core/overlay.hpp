// The delay-Doppler signaling overlay (§5.1, Fig. 6b): glue between the
// signaling queues, the scheduling-based OTFS subgrid allocator, and the
// coded OTFS link. Data traffic keeps its OFDM slots untouched.
//
// This is the component a base station (downlink) or client (uplink)
// instantiates; the network simulator abstracts it through BlerModel, and
// bench_fig10/fig11 exercise the full chain below it.
#pragma once

#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "phy/link.hpp"
#include "phy/scheduler.hpp"

#include <cstdint>
#include <vector>

namespace rem::core {

struct OverlayConfig {
  phy::Numerology num = phy::Numerology::lte(64, 14);
  /// Fall back to plain OFDM for signaling (legacy mode / peers without
  /// REM support — §6's backward compatibility).
  bool legacy_ofdm = false;
};

/// Outcome of transmitting one subframe.
struct SubframeOutcome {
  phy::SubframeAllocation allocation;
  /// Ids of signaling messages decoded correctly at the receiver.
  std::vector<std::uint64_t> delivered_signaling_ids;
  /// Ids lost to block errors.
  std::vector<std::uint64_t> lost_signaling_ids;
  /// Resource elements left for OFDM data this subframe.
  std::size_t data_res = 0;
};

class SignalingOverlay {
 public:
  explicit SignalingOverlay(OverlayConfig cfg);

  void enqueue_signaling(std::uint64_t id, std::size_t bytes);
  void enqueue_data(std::uint64_t id, std::size_t bytes);
  std::size_t signaling_backlog_bytes() const {
    return scheduler_.signaling_backlog_bytes();
  }

  /// Schedule and transmit one subframe over `ch` at `snr_db`: the
  /// signaling subgrid goes through the full coded OTFS (or legacy OFDM)
  /// chain; each served message is delivered iff its block decodes.
  SubframeOutcome transmit_subframe(const channel::MultipathChannel& ch,
                                    double snr_db, common::Rng& rng);

  const OverlayConfig& config() const { return cfg_; }

 private:
  OverlayConfig cfg_;
  phy::SignalingScheduler scheduler_;
};

}  // namespace rem::core
