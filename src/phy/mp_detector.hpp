// Message-passing detection for OTFS in the delay-Doppler domain
// (Raviteja et al., "Interference cancellation and iterative detection for
// orthogonal time frequency space modulation" — the paper's OTFS detection
// reference [21]).
//
// The DD-domain input-output relation is a sparse 2-D twisted convolution:
// each received bin couples only with the few delay/Doppler-shifted copies
// of the data grid the channel's paths produce. The detector runs Gaussian
// message passing on that sparse factor graph: interference from other
// symbols is approximated per-edge as Gaussian, symbol posteriors are
// damped across iterations, and convergence yields per-symbol
// probabilities (and max-log LLRs for the decoder).
#pragma once

#include "dsp/matrix.hpp"
#include "phy/qam.hpp"

#include <vector>

namespace rem::phy {

/// One sparse channel tap in the delay-Doppler grid.
struct DdTap {
  std::size_t delay_bin = 0;    ///< k_i in [0, M)
  std::size_t doppler_bin = 0;  ///< l_i in [0, N)
  cd gain;                      ///< complex tap value
};

/// Extract significant taps from a DD channel sample matrix: keep taps
/// above `threshold` * strongest, at most `max_taps` (strongest first).
std::vector<DdTap> extract_dd_taps(const dsp::Matrix& dd_h,
                                   double threshold = 0.05,
                                   std::size_t max_taps = 16);

struct MpResult {
  std::vector<cd> symbols;       ///< posterior-mean symbol estimates
  std::vector<double> llrs;      ///< max-log LLRs (bits_per_symbol per sym)
  std::size_t iterations = 0;
};

/// Detect the M x N delay-Doppler data grid from the received grid `y`
/// given the sparse channel taps. Symbols are column-major (matching
/// LinkSimulator's grid fill order): index = col * M + row.
MpResult mp_detect(const dsp::Matrix& y, const std::vector<DdTap>& taps,
                   Modulation mod, double noise_power);

}  // namespace rem::phy
