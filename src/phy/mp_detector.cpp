#include "phy/mp_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rem::phy {
namespace {

constexpr std::size_t kMaxIterations = 20;
constexpr double kDamping = 0.6;          ///< posterior damping factor (Delta)
constexpr double kConvergenceEps = 1e-3;  ///< stop when posteriors settle

// Flattened column-major index.
inline std::size_t flat(std::size_t row, std::size_t col, std::size_t m) {
  return col * m + row;
}

}  // namespace

std::vector<DdTap> extract_dd_taps(const dsp::Matrix& dd_h,
                                   double threshold,
                                   std::size_t max_taps) {
  std::vector<DdTap> taps;
  double strongest = 0.0;
  for (std::size_t k = 0; k < dd_h.rows(); ++k)
    for (std::size_t l = 0; l < dd_h.cols(); ++l)
      strongest = std::max(strongest, std::abs(dd_h(k, l)));
  if (strongest <= 0.0) return taps;
  for (std::size_t k = 0; k < dd_h.rows(); ++k)
    for (std::size_t l = 0; l < dd_h.cols(); ++l)
      if (std::abs(dd_h(k, l)) >= threshold * strongest)
        taps.push_back({k, l, dd_h(k, l)});
  std::sort(taps.begin(), taps.end(), [](const DdTap& a, const DdTap& b) {
    return std::abs(a.gain) > std::abs(b.gain);
  });
  if (taps.size() > max_taps) taps.resize(max_taps);
  return taps;
}

MpResult mp_detect(const dsp::Matrix& y, const std::vector<DdTap>& taps,
                   Modulation mod, double noise_power) {
  const std::size_t m = y.rows();
  const std::size_t n = y.cols();
  const std::size_t count = m * n;
  const auto& constel = constellation(mod);
  const std::size_t q = constel.size();
  const std::size_t bps = bits_per_symbol(mod);

  MpResult out;
  out.symbols.assign(count, cd(0, 0));
  out.llrs.assign(count * bps, 0.0);
  if (taps.empty() || count == 0) return out;

  // Symbol posteriors, initialized uniform; means/vars derived from them.
  std::vector<double> prob(count * q, 1.0 / static_cast<double>(q));
  std::vector<cd> mean(count, cd(0, 0));
  std::vector<double> var(count, 1.0);  // unit-power constellations

  const auto refresh_moments = [&](std::size_t d) {
    cd mu(0, 0);
    double second = 0.0;
    for (std::size_t s = 0; s < q; ++s) {
      mu += prob[d * q + s] * constel[s];
      second += prob[d * q + s] * std::norm(constel[s]);
    }
    mean[d] = mu;
    var[d] = std::max(second - std::norm(mu), 1e-9);
  };
  for (std::size_t d = 0; d < count; ++d) refresh_moments(d);

  // Observation c = (row k, col l) couples with data symbol
  // d = (k - k_i mod M, l - l_i mod N) through tap i.
  const auto data_index = [&](std::size_t k, std::size_t l,
                              const DdTap& tap) {
    const std::size_t dk = (k + m - tap.delay_bin) % m;
    const std::size_t dl = (l + n - tap.doppler_bin) % n;
    return flat(dk, dl, m);
  };

  std::vector<double> new_prob(count * q);
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Precompute the total interference mean/variance per observation.
    std::vector<cd> obs_mean(count, cd(0, 0));
    std::vector<double> obs_var(count, noise_power);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t c = flat(k, l, m);
        for (const auto& tap : taps) {
          const std::size_t d = data_index(k, l, tap);
          obs_mean[c] += tap.gain * mean[d];
          obs_var[c] += std::norm(tap.gain) * var[d];
        }
      }
    }

    // Per-symbol posterior update: combine extrinsic Gaussians from every
    // observation the symbol participates in.
    double max_change = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t d = flat(k, l, m);
        // Log-likelihood of each constellation point.
        std::vector<double> loglik(q, 0.0);
        for (const auto& tap : taps) {
          // Observation this symbol feeds through this tap:
          // c = (k + k_i mod M, l + l_i mod N).
          const std::size_t ck = (k + tap.delay_bin) % m;
          const std::size_t cl = (l + tap.doppler_bin) % n;
          const std::size_t c = flat(ck, cl, m);
          // Extrinsic: remove this symbol's own contribution.
          const cd ext_mean = obs_mean[c] - tap.gain * mean[d];
          const double ext_var = std::max(
              obs_var[c] - std::norm(tap.gain) * var[d], noise_power);
          const cd residual = y(ck, cl) - ext_mean;
          for (std::size_t s = 0; s < q; ++s) {
            loglik[s] -=
                std::norm(residual - tap.gain * constel[s]) / ext_var;
          }
        }
        // Softmax with damping.
        const double peak = *std::max_element(loglik.begin(), loglik.end());
        double z = 0.0;
        for (std::size_t s = 0; s < q; ++s) {
          loglik[s] = std::exp(loglik[s] - peak);
          z += loglik[s];
        }
        for (std::size_t s = 0; s < q; ++s) {
          const double p_new = loglik[s] / z;
          const double damped =
              kDamping * p_new + (1.0 - kDamping) * prob[d * q + s];
          max_change = std::max(max_change,
                                std::abs(damped - prob[d * q + s]));
          new_prob[d * q + s] = damped;
        }
      }
    }
    prob.swap(new_prob);
    for (std::size_t d = 0; d < count; ++d) refresh_moments(d);
    out.iterations = iter + 1;
    if (max_change < kConvergenceEps) break;
  }

  // Posterior means and max-log bit LLRs.
  for (std::size_t d = 0; d < count; ++d) {
    out.symbols[d] = mean[d];
    for (std::size_t b = 0; b < bps; ++b) {
      double best0 = -std::numeric_limits<double>::infinity();
      double best1 = -std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < q; ++s) {
        const double lp = std::log(std::max(prob[d * q + s], 1e-300));
        if ((s >> (bps - 1 - b)) & 1u)
          best1 = std::max(best1, lp);
        else
          best0 = std::max(best0, lp);
      }
      out.llrs[d * bps + b] = best0 - best1;  // >0 favors bit 0
    }
  }
  return out;
}

}  // namespace rem::phy
