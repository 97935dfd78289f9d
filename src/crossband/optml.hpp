// OptML-style learned cross-band estimation baseline (Bakshi et al.,
// MobiCom'19).
//
// A machine-learning predictor trained on paired (band-1 measurement,
// band-2 ground truth) examples. Features capture the per-subcarrier
// time-averaged magnitude profile *and* the per-subcarrier temporal
// variance — the latter implicitly encodes Doppler spread, which is why
// OptML outperforms the purely static R2F2 fit on high-speed-rail channels
// while still trailing REM's explicit Doppler treatment (Fig. 13).
//
// The predictor is weighted k-nearest-neighbor regression over the training
// set, followed by an ML-seeded NLS refinement stage — the "optimization"
// half of OptML, shared with R2F2 but warm-started and therefore much
// shorter. Like the original, it needs a training corpus (80/20 split in
// the paper's evaluation) and its inference cost sits between REM's
// closed-form SVD and R2F2's cold-start optimization.
#pragma once

#include "crossband/estimator.hpp"

#include <vector>

namespace rem::crossband {

class OptMlEstimator final : public CrossbandEstimator {
 public:
  /// Add one training example: the band-1 TF measurement and the true
  /// band-2 TF channel (same grid).
  void add_training_example(const dsp::Matrix& h1_tf,
                            const dsp::Matrix& h2_tf);

  std::size_t training_size() const { return corpus_.size(); }

  CrossbandOutput estimate(const CrossbandInput& in) override;
  std::string name() const override { return "OptML"; }

 private:
  struct Example {
    std::vector<double> feature;
    double gain2;               ///< band-2 mean per-RE gain
    std::vector<double> mag2;   ///< band-2 per-subcarrier mean magnitude
  };

  static std::vector<double> featurize(const dsp::Matrix& h_tf);

  std::vector<Example> corpus_;
};

}  // namespace rem::crossband
