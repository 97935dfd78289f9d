#include "crossband/optml.hpp"

#include "crossband/nls.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rem::crossband {
namespace {
using dsp::cd;

/// Neighbours of the weighted k-NN regression.
constexpr std::size_t kNeighbors = 8;
/// Paths in the ML-seeded NLS phase-refinement stage.
constexpr std::size_t kMaxPaths = 6;
/// Warm-start refinement iterations (vs R2F2's cold-start hundreds).
constexpr std::size_t kRefineIters = 120;
constexpr std::size_t kDelayOversample = 4;

double sq(double x) { return x * x; }
}  // namespace

std::vector<double> OptMlEstimator::featurize(const dsp::Matrix& h_tf) {
  const std::size_t m = h_tf.rows();
  const std::size_t n = h_tf.cols();
  std::vector<double> f;
  f.reserve(2 * m);
  // Per-subcarrier time-averaged magnitude.
  for (std::size_t k = 0; k < m; ++k) {
    double mean = 0;
    for (std::size_t l = 0; l < n; ++l) mean += std::abs(h_tf(k, l));
    f.push_back(mean / static_cast<double>(n));
  }
  // Per-subcarrier temporal variance (Doppler signature).
  for (std::size_t k = 0; k < m; ++k) {
    double mean = f[k];
    double var = 0;
    for (std::size_t l = 0; l < n; ++l)
      var += sq(std::abs(h_tf(k, l)) - mean);
    f.push_back(var / static_cast<double>(n));
  }
  return f;
}

void OptMlEstimator::add_training_example(const dsp::Matrix& h1_tf,
                                          const dsp::Matrix& h2_tf) {
  Example ex;
  ex.feature = featurize(h1_tf);
  ex.gain2 = mean_gain_tf(h2_tf);
  ex.mag2.resize(h2_tf.rows());
  for (std::size_t k = 0; k < h2_tf.rows(); ++k) {
    double mean = 0;
    for (std::size_t l = 0; l < h2_tf.cols(); ++l)
      mean += std::abs(h2_tf(k, l));
    ex.mag2[k] = mean / static_cast<double>(h2_tf.cols());
  }
  corpus_.push_back(std::move(ex));
}

CrossbandOutput OptMlEstimator::estimate(const CrossbandInput& in) {
  if (corpus_.empty())
    throw std::runtime_error("OptML: estimate() before training");
  const std::size_t m = in.h1_tf.rows();
  const std::size_t n = in.h1_tf.cols();

  const auto feature = featurize(in.h1_tf);

  // Weighted k-NN over the corpus.
  std::vector<std::pair<double, std::size_t>> dist;
  dist.reserve(corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const auto& f = corpus_[i].feature;
    double d = 0;
    const std::size_t dim = std::min(f.size(), feature.size());
    for (std::size_t j = 0; j < dim; ++j) d += sq(f[j] - feature[j]);
    dist.push_back({d, i});
  }
  const std::size_t k_n = std::min(kNeighbors, corpus_.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k_n),
                    dist.end());

  double gain = 0;
  std::vector<double> mag2(m, 0.0);
  double wsum = 0;
  for (std::size_t j = 0; j < k_n; ++j) {
    const double w = 1.0 / (dist[j].first + 1e-9);
    const auto& ex = corpus_[dist[j].second];
    gain += w * ex.gain2;
    for (std::size_t k = 0; k < m && k < ex.mag2.size(); ++k)
      mag2[k] += w * ex.mag2[k];
    wsum += w;
  }
  gain /= wsum;
  for (auto& x : mag2) x /= wsum;

  // ML-seeded NLS refinement ("Opt" in OptML): fit a sparse path model to
  // the time-averaged band-1 response, warm-started by matching pursuit
  // and refined for far fewer iterations than R2F2 needs from cold. The
  // fitted model provides the per-subcarrier *phase* structure; the k-NN
  // provides the band-2 magnitudes. Doppler-induced time evolution is
  // still invisible to it, which is this baseline's residual error.
  std::vector<cd> h_avg(m, cd(0, 0));
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l < n; ++l) h_avg[k] += in.h1_tf(k, l);
    h_avg[k] /= static_cast<double>(n);
  }
  auto fitted = nls_matching_pursuit(h_avg, in.num.subcarrier_spacing_hz,
                                     kMaxPaths, kDelayOversample);
  nls_refine(fitted, h_avg, in.num.subcarrier_spacing_hz, kRefineIters,
             kDelayOversample);
  const auto model =
      nls_evaluate(fitted, m, in.num.subcarrier_spacing_hz);

  dsp::Matrix h2(m, n);
  for (std::size_t k = 0; k < m; ++k) {
    cd phase = model[k];
    const double pm = std::abs(phase);
    phase = pm > 1e-12 ? phase / pm : cd(1, 0);
    for (std::size_t l = 0; l < n; ++l) h2(k, l) = mag2[k] * phase;
  }
  // Normalize total energy to the k-NN gain.
  const double g_now = mean_gain_tf(h2);
  if (g_now > 1e-15) {
    const double scale = std::sqrt(gain / g_now);
    h2 *= cd(scale, 0);
  }

  CrossbandOutput out;
  out.is_delay_doppler = false;
  out.mean_gain = gain;
  out.h2 = std::move(h2);
  return out;
}

}  // namespace rem::crossband
