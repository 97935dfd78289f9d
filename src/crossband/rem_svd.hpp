// REM's SVD cross-band estimation (Algorithm 1 + Appendix C).
//
// Factorize the band-1 delay-Doppler channel matrix H1 = U Σ V* and read
// each singular triplet as one propagation path: U column = delay spread
// Γ(·, τ_p), singular value = attenuation |h_p|, V* row = Doppler spread
// Φ(·, ν_p). Delays/attenuations transfer to band 2 unchanged; Dopplers are
// rescaled by f2/f1, the Doppler factor is rebuilt, and H2 = Γ P Φ2.
//
// Per-path delay/Doppler extraction departs from the paper's printed ratio
// estimator in favour of the equivalent (and numerically robust, on- and
// off-grid) inverse-DFT method: the Dirichlet columns Γ(·,τ) / Φ(·,ν) are
// the exact forward DFTs of finite exponential sequences, so an inverse
// DFT recovers e^{-j2π τ Δf} / e^{j2π ν T} as the common ratio of
// consecutive samples.
#pragma once

#include "crossband/estimator.hpp"

#include <vector>

namespace rem::crossband {

struct RemSvdConfig {
  /// Maximum number of paths to keep (rank truncation). 0 = auto (keep
  /// singular values above `energy_cutoff` of the strongest).
  std::size_t max_paths = 0;
  /// Relative singular-value cutoff for auto rank selection.
  double energy_cutoff = 0.05;
};

/// Per-path parameters extracted from one singular triplet.
struct ExtractedPath {
  double delay_s = 0.0;
  double doppler_hz = 0.0;
  double attenuation = 0.0;  ///< singular value
};

class RemSvdEstimator final : public CrossbandEstimator {
 public:
  explicit RemSvdEstimator(RemSvdConfig cfg = {}) : cfg_(cfg) {}

  CrossbandOutput estimate(const CrossbandInput& in) override;
  std::string name() const override { return "REM"; }

  /// Paths extracted on the last estimate() call (for inspection/tests).
  const std::vector<ExtractedPath>& last_paths() const { return paths_; }

 private:
  RemSvdConfig cfg_;
  std::vector<ExtractedPath> paths_;
};

}  // namespace rem::crossband
