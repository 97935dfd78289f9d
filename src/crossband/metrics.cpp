#include "crossband/metrics.hpp"

#include "channel/noise.hpp"
#include "common/stats.hpp"
#include "phy/channel_est.hpp"

#include <chrono>
#include <cmath>

namespace rem::crossband {
namespace {

/// A3 thresholds are drawn uniformly from [-kDeltaRangeDb, +kDeltaRangeDb]
/// dB around the (near-zero) true SNR difference, probing how estimation
/// error flips borderline handover decisions.
constexpr double kDeltaRangeDb = 6.0;
/// An LTE measurement is a time/frequency-localized burst, not the whole
/// grid: the score compares predicted vs true gain over this patch
/// (subcarriers x symbols, placed at a random grid position per trial).
constexpr std::size_t kSubbandM = 12;
constexpr std::size_t kSubbandN = 4;

// Mean per-RE gain of a TF matrix over the patch starting at (k0, l0).
double patch_gain(const dsp::Matrix& h, std::size_t k0, std::size_t l0,
                  std::size_t pm, std::size_t pn) {
  double g = 0.0;
  for (std::size_t k = 0; k < pm; ++k)
    for (std::size_t l = 0; l < pn; ++l) g += std::norm(h(k0 + k, l0 + l));
  return g / static_cast<double>(pm * pn);
}

}  // namespace

dsp::Matrix measure_tf(const channel::MultipathChannel& ch,
                       const phy::Numerology& num, double snr_db,
                       common::Rng& rng) {
  auto h = ch.tf_matrix(num.num_subcarriers, num.num_symbols,
                        num.subcarrier_spacing_hz, num.symbol_duration_s());
  const double noise = channel::noise_power_for_snr_db(snr_db);
  for (auto& x : h.data()) x += rng.complex_gaussian(noise);
  return h;
}

void train_optml(OptMlEstimator& est, const EvalConfig& cfg,
                 std::size_t examples, common::Rng& rng) {
  const double ratio = cfg.f2_hz / cfg.f1_hz;
  for (std::size_t i = 0; i < examples; ++i) {
    const auto ch1 = channel::draw_channel(cfg.draw, rng);
    const auto ch2 = ch1.with_doppler_scaled(ratio);
    const auto h1 = measure_tf(ch1, cfg.num, cfg.measure_snr_db, rng);
    const auto h2 = ch2.tf_matrix(cfg.num.num_subcarriers,
                                  cfg.num.num_symbols,
                                  cfg.num.subcarrier_spacing_hz,
                                  cfg.num.symbol_duration_s());
    est.add_training_example(h1, h2);
  }
}

EvalResult evaluate_estimator(CrossbandEstimator& est, const EvalConfig& cfg,
                              common::Rng& rng) {
  EvalResult res;
  const double ratio = cfg.f2_hz / cfg.f1_hz;
  phy::DdChannelEstimator dd_est(cfg.num);

  std::size_t est_trigger = 0, both_trigger = 0, agree = 0;
  double runtime_ms = 0.0;
  const std::size_t pm = std::min(kSubbandM, cfg.num.num_subcarriers);
  const std::size_t pn = std::min(kSubbandN, cfg.num.num_symbols);

  for (std::size_t t = 0; t < cfg.trials; ++t) {
    const auto ch1 = channel::draw_channel(cfg.draw, rng);
    const auto ch2 = ch1.with_doppler_scaled(ratio);

    CrossbandInput in;
    in.num = cfg.num;
    in.f1_hz = cfg.f1_hz;
    in.f2_hz = cfg.f2_hz;
    in.h1_dd = dd_est.estimate(ch1, cfg.measure_snr_db, rng).h;
    in.h1_tf = measure_tf(ch1, cfg.num, cfg.measure_snr_db, rng);

    const auto start = std::chrono::steady_clock::now();
    const auto out = est.estimate(in);
    const auto stop = std::chrono::steady_clock::now();
    runtime_ms +=
        std::chrono::duration<double, std::milli>(stop - start).count();

    // Localized measurement patch, random position per trial.
    const auto k0 = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cfg.num.num_subcarriers - pm)));
    const auto l0 = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cfg.num.num_symbols - pn)));

    const auto h2_true = ch2.tf_matrix(cfg.num.num_subcarriers,
                                       cfg.num.num_symbols,
                                       cfg.num.subcarrier_spacing_hz,
                                       cfg.num.symbol_duration_s());
    const auto h2_pred = output_as_tf(out);
    const double g_true = patch_gain(h2_true, k0, l0, pm, pn);
    const double g_pred =
        std::max(patch_gain(h2_pred, k0, l0, pm, pn), 1e-12);
    const double err_db = std::abs(10.0 * std::log10(g_pred / g_true));
    res.snr_error_db.push_back(err_db);

    // A3 decision: SNR2 > SNR1 + delta with a random borderline delta.
    // The SNR offset cancels (same noise floor), so this reduces to a gain
    // comparison in dB.
    const auto h1_true = ch1.tf_matrix(cfg.num.num_subcarriers,
                                       cfg.num.num_symbols,
                                       cfg.num.subcarrier_spacing_hz,
                                       cfg.num.symbol_duration_s());
    const double g1_true = patch_gain(h1_true, k0, l0, pm, pn);
    const double delta_db = rng.uniform(-kDeltaRangeDb, kDeltaRangeDb);
    const bool true_ho =
        10.0 * std::log10(g_true / g1_true) > delta_db;
    const bool est_ho =
        10.0 * std::log10(g_pred / g1_true) > delta_db;
    if (est_ho) {
      ++est_trigger;
      if (true_ho) ++both_trigger;
    }
    if (est_ho == true_ho) ++agree;
  }

  common::Summary s;
  s.add_all(res.snr_error_db);
  res.mean_snr_error_db = s.mean();
  res.p90_snr_error_db = s.percentile(90.0);
  res.decision_precision =
      est_trigger > 0
          ? static_cast<double>(both_trigger) /
                static_cast<double>(est_trigger)
          : 1.0;
  res.decision_agreement =
      static_cast<double>(agree) / static_cast<double>(cfg.trials);
  res.mean_runtime_ms = runtime_ms / static_cast<double>(cfg.trials);
  return res;
}

}  // namespace rem::crossband
