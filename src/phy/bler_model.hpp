// Link abstraction: maps (waveform, Doppler regime, SNR) to a block error
// probability so the network-level simulator does not run the full coded
// link per signaling message. LogisticBlerModel is the implementation:
// parametric curves with defaults calibrated against this repo's
// LinkSimulator (bench_fig10 regenerates the raw curves).
#pragma once

#include "phy/link.hpp"

namespace rem::phy {

/// Doppler regime seen by the signaling link.
enum class DopplerRegime { kLow, kHigh };

class BlerModel {
 public:
  virtual ~BlerModel() = default;
  /// Block error probability in [0,1].
  virtual double bler(Waveform w, DopplerRegime d, double snr_db) const = 0;
};

/// Parametric logistic BLER with an optional high-Doppler error floor:
///   bler = floor + (1 - floor) / (1 + exp(slope * (snr - mid)))
struct LogisticCurve {
  double mid_db = 0.0;
  double slope = 1.0;
  double floor = 0.0;

  double eval(double snr_db) const;
};

class LogisticBlerModel final : public BlerModel {
 public:
  /// Defaults reproduce the qualitative Fig. 10 relationship: at high
  /// Doppler, OFDM needs several dB more SNR and keeps a residual error
  /// floor from inter-carrier interference, while OTFS rides the full
  /// time-frequency diversity.
  LogisticBlerModel();

  double bler(Waveform w, DopplerRegime d, double snr_db) const override;

 private:
  LogisticCurve curves_[2][2];
};

}  // namespace rem::phy
