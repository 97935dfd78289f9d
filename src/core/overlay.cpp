#include "core/overlay.hpp"

namespace rem::core {
namespace {

/// Signaling subgrid modulation.
constexpr phy::Modulation kSignalingMod = phy::Modulation::kQPSK;

}  // namespace

SignalingOverlay::SignalingOverlay(OverlayConfig cfg)
    : cfg_(cfg), scheduler_(cfg.num, kSignalingMod) {}

void SignalingOverlay::enqueue_signaling(std::uint64_t id,
                                         std::size_t bytes) {
  scheduler_.enqueue({id, bytes, true});
}

void SignalingOverlay::enqueue_data(std::uint64_t id, std::size_t bytes) {
  scheduler_.enqueue({id, bytes, false});
}

SubframeOutcome SignalingOverlay::transmit_subframe(
    const channel::MultipathChannel& ch, double snr_db, common::Rng& rng) {
  SubframeOutcome out;
  out.allocation = scheduler_.schedule_subframe();
  for (const auto& rect : out.allocation.data) out.data_res += rect.res();
  if (!out.allocation.signaling.has_value())
    return out;  // nothing but data this subframe

  // Transmit the signaling subgrid through the real coded link. The
  // subgrid spans full symbols (scheduler invariant), so it forms its own
  // M x N' OTFS frame.
  phy::LinkConfig link;
  link.num = cfg_.num;
  link.num.num_symbols = out.allocation.signaling->num_symbols;
  link.waveform =
      cfg_.legacy_ofdm ? phy::Waveform::kOFDM : phy::Waveform::kOTFS;
  link.mod = kSignalingMod;
  link.snr_db = snr_db;
  const auto res = phy::LinkSimulator(link).run_block(ch, rng);

  // All messages scheduled into the subgrid share the block's fate (they
  // are concatenated into one transport block, as in LTE SRB delivery).
  if (res.block_error)
    out.lost_signaling_ids = out.allocation.served_signaling_ids;
  else
    out.delivered_signaling_ids = out.allocation.served_signaling_ids;
  return out;
}

}  // namespace rem::core
