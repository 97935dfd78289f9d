#include "crossband/rem_svd.hpp"

#include "dsp/fft.hpp"
#include "dsp/prony.hpp"
#include "dsp/svd.hpp"
#include "phy/otfs.hpp"

#include <cmath>
#include <numbers>

namespace rem::crossband {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
/// Relative singular-value cutoff of the rank rule: a triplet is a path
/// while its singular value is at least this share of the strongest.
constexpr double kEnergyCutoff = 0.05;
using dsp::cd;

// Recover the common ratio r of the finite exponential sequence whose
// forward DFT is `spectrum` (i.e. spectrum[j] = sum_d r_seq[d] W^{jd} with
// r_seq[d] = r^d * scale). Weighted by magnitude so near-zero samples do
// not blow up the estimate. `conjugate_dft` selects the sign convention of
// the forward transform that produced `spectrum`.
cd common_ratio(const std::vector<cd>& spectrum, bool conjugate_dft) {
  // Invert the DFT to get the exponential sequence.
  std::vector<cd> seq = spectrum;
  if (conjugate_dft) {
    // spectrum[j] = sum_d x[d] e^{+j2pi jd/D}: conjugate, ifft, conjugate.
    for (auto& x : seq) x = std::conj(x);
    dsp::ifft(seq);
    for (auto& x : seq) x = std::conj(x);
  } else {
    dsp::ifft(seq);
  }
  cd acc(0, 0);
  for (std::size_t d = 0; d + 1 < seq.size(); ++d) {
    // Weight each consecutive ratio by |seq[d]|^2: seq[d+1]/seq[d] * w.
    acc += seq[d + 1] * std::conj(seq[d]);
  }
  const double mag = std::abs(acc);
  if (mag < 1e-15) return cd(1, 0);
  return acc / mag;  // unit-modulus ratio estimate
}

}  // namespace

CrossbandOutput RemSvdEstimator::estimate(const CrossbandInput& in) {
  const std::size_t m = in.h1_dd.rows();
  const std::size_t n = in.h1_dd.cols();
  const double df = in.num.subcarrier_spacing_hz;
  const double symbol_t = in.num.symbol_duration_s();
  const double fs = in.num.sample_rate_hz();
  const double ratio = in.f2_hz / in.f1_hz;

  // Line 1: H1 = Gamma P Phi1 via SVD, keeping the components above the
  // relative energy cutoff.
  const auto svd = dsp::svd(in.h1_dd);
  std::size_t rank = svd.sigma.size();
  while (rank > 1 && svd.sigma[rank - 1] < kEnergyCutoff * svd.sigma[0])
    --rank;

  paths_.clear();
  dsp::Matrix h2(m, n);
  for (std::size_t p = 0; p < rank; ++p) {
    // Lines 3-5 (generalized): the Doppler factor of this triplet.
    // V* row p = conj(V(:,p)); Phi(l) = sum_c e^{-j2pi l c / N} phi_c is a
    // forward DFT of the time sequence phi_c. When the triplet carries a
    // single path, phi_c = e^{j 2 pi nu c T}; co-delayed paths (e.g. a
    // Rician LOS plus its diffuse component) land in the *same* triplet,
    // making phi_c a small sum of exponentials — fit them all with the
    // matrix-pencil method instead of the paper's single-ratio estimator.
    std::vector<cd> phi_row(n);
    for (std::size_t l = 0; l < n; ++l) phi_row[l] = std::conj(svd.v(l, p));
    std::vector<cd> phi_seq = phi_row;
    dsp::ifft(phi_seq);
    auto comps = dsp::fit_exponentials(phi_seq, 3);

    // U column p: Gamma(k) = sum_d e^{+j2pi k d / M} e^{-j2pi tau d df} is
    // a conjugate-convention DFT of e^{-j 2 pi tau d df}; extract tau for
    // reporting (the delay factor itself transfers to band 2 unchanged).
    std::vector<cd> gamma_col = svd.u.col(p);
    const cd u = common_ratio(gamma_col, true);  // e^{-j 2 pi tau df}
    double tau = -std::arg(u) / (kTwoPi * df);
    if (tau < 0) tau += 1.0 / df;  // delays are non-negative, wrap

    // Line 6: rescale every Doppler component by f2/f1. Each component's
    // CP phase e^{j 2 pi nu cp/fs} also moves with its Doppler.
    const double dominant_nu1 =
        comps.empty() ? 0.0
                      : std::arg(comps[0].pole) / (kTwoPi * symbol_t);
    paths_.push_back({tau, dominant_nu1 * ratio, svd.sigma[p]});
    for (auto& comp : comps) {
      const double nu1 = std::arg(comp.pole) / (kTwoPi * symbol_t);
      const double cp_ang = kTwoPi * nu1 * (ratio - 1.0) *
                            static_cast<double>(in.num.cp_len) / fs;
      comp.amplitude *= cd(std::cos(cp_ang), std::sin(cp_ang));
    }

    // Lines 9-10: rebuild the band-2 Doppler factor from the rescaled
    // components and accumulate H2 += (U_p sigma_p) x DFT(phi2).
    std::vector<cd> phi2_seq = dsp::eval_exponentials(comps, n, ratio);
    dsp::fft(phi2_seq);  // back to the Phi(l) representation
    for (std::size_t k = 0; k < m; ++k) {
      const cd left = svd.u(k, p) * svd.sigma[p];
      for (std::size_t l = 0; l < n; ++l) h2(k, l) += left * phi2_seq[l];
    }
  }

  CrossbandOutput out;
  out.is_delay_doppler = true;
  const double f = h2.frobenius_norm();
  out.mean_gain = f * f;
  out.h2 = std::move(h2);
  return out;
}

double mean_gain_tf(const dsp::Matrix& h_tf) {
  const double f = h_tf.frobenius_norm();
  return f * f / static_cast<double>(h_tf.rows() * h_tf.cols());
}

dsp::Matrix output_as_tf(const CrossbandOutput& out) {
  if (!out.is_delay_doppler) return out.h2;
  // The DD estimate is the 1/(MN)-normalized inverse SFFT of the TF
  // samples, so the forward unitary SFFT needs a sqrt(MN) rescale.
  dsp::Matrix tf = phy::sfft(out.h2);
  const double scale =
      std::sqrt(static_cast<double>(out.h2.rows() * out.h2.cols()));
  tf *= dsp::cd(scale, 0);
  return tf;
}

}  // namespace rem::crossband
