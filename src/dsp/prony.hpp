// Sparse exponential modeling of short sequences (matrix-pencil / Prony).
//
// Models x[c] = sum_{p=1}^{K} a_p z_p^c with K small (<= 4 here). Used by
// REM's cross-band estimator: an SVD triplet of the delay-Doppler matrix
// whose paths share a delay carries a Doppler factor that is a *sum* of
// complex exponentials; the matrix-pencil method separates them so each
// Doppler can be rescaled to the target band individually.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace rem::dsp {

struct ExponentialComponent {
  std::complex<double> amplitude;  ///< a_p
  std::complex<double> pole;       ///< z_p (|z| ~ 1 for pure oscillations)
};

/// Fit up to `max_components` exponentials to `seq` with the matrix-pencil
/// method. Components whose singular value falls below
/// `rel_threshold` * (largest) are dropped. Returns components sorted by
/// descending |amplitude|. Sequences shorter than 4 samples fall back to a
/// single weighted-ratio component.
std::vector<ExponentialComponent> fit_exponentials(
    const std::vector<std::complex<double>>& seq,
    std::size_t max_components = 3, double rel_threshold = 0.08);

/// Evaluate a fitted model at integer samples 0..n-1, with each pole's
/// *angle* scaled by `angle_scale` (|z| preserved). angle_scale = 1
/// reproduces the fit; REM uses f2/f1 to retarget Dopplers.
std::vector<std::complex<double>> eval_exponentials(
    const std::vector<ExponentialComponent>& comps, std::size_t n,
    double angle_scale = 1.0);

}  // namespace rem::dsp
