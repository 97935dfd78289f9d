// Evaluation harness for cross-band estimators (Fig. 12-14).
//
// Per trial: draw a band-1 channel, derive the co-located band-2 channel by
// Doppler scaling (nu2/nu1 = f2/f1 — same paths, same gains), measure band 1
// through the noisy pilot chain, ask the estimator for band 2, and compare
// the predicted wideband SNR against the ground truth. Also scores A3
// handover decisions made from the estimate against decisions made from the
// ground truth, across a spread of configured thresholds.
#pragma once

#include "channel/profiles.hpp"
#include "common/rng.hpp"
#include "crossband/estimator.hpp"
#include "crossband/optml.hpp"

#include <vector>

namespace rem::crossband {

struct EvalConfig {
  channel::ChannelDrawConfig draw;   ///< band-1 channel statistics
  phy::Numerology num = phy::Numerology::lte(64, 16);
  double f1_hz = 1.88e9;
  double f2_hz = 2.6e9;
  double measure_snr_db = 20.0;      ///< pilot SNR for the band-1 estimate
  std::size_t trials = 100;
};

struct EvalResult {
  std::vector<double> snr_error_db;  ///< |predicted - true| per trial
  double mean_snr_error_db = 0.0;
  double p90_snr_error_db = 0.0;
  /// Of the trials where the estimate triggered the A3 event, the fraction
  /// where direct measurement would have triggered it too.
  double decision_precision = 0.0;
  /// Fraction of trials where estimated and true decisions agree.
  double decision_agreement = 0.0;
  double mean_runtime_ms = 0.0;
};

/// Run the evaluation protocol on one estimator.
EvalResult evaluate_estimator(CrossbandEstimator& est, const EvalConfig& cfg,
                              common::Rng& rng);

/// Generate `examples` training pairs for OptML from the same statistics
/// the evaluation will use (the paper's 80/20 split).
void train_optml(OptMlEstimator& est, const EvalConfig& cfg,
                 std::size_t examples, common::Rng& rng);

/// Noisy time-frequency measurement of a channel (analytic response +
/// complex AWGN per RE at the configured pilot SNR).
dsp::Matrix measure_tf(const channel::MultipathChannel& ch,
                       const phy::Numerology& num, double snr_db,
                       common::Rng& rng);

}  // namespace rem::crossband
