// Complex singular value decomposition.
//
// REM's cross-band estimation (Algorithm 1) factorizes the delay-Doppler
// channel matrix H = U Σ V* and interprets the factors as path delay (U),
// attenuation (Σ), and Doppler (V*) structure. We implement a one-sided
// Jacobi SVD: numerically robust, no external dependency, and fast enough
// for the grid sizes used here (up to ~1200x560 in offline benches,
// 12x14..128x64 in the hot path).
#pragma once

#include "dsp/matrix.hpp"

#include <vector>

namespace rem::dsp {

struct SvdResult {
  Matrix u;                       ///< rows x rank, orthonormal columns
  std::vector<double> sigma;      ///< rank singular values, descending
  Matrix v;                       ///< cols x rank, orthonormal columns (V, not V*)

  /// Reconstruct U * diag(sigma) * V^* (possibly rank-truncated).
  Matrix reconstruct() const;
};

/// Thin SVD of `a`. If `rank_limit` > 0, only the strongest `rank_limit`
/// singular triplets are kept; otherwise all min(rows, cols) are returned.
/// Singular values below `truncate_below` (absolute) are dropped.
SvdResult svd(const Matrix& a, std::size_t rank_limit = 0,
              double truncate_below = 0.0);

}  // namespace rem::dsp
