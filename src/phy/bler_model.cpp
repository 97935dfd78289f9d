#include "phy/bler_model.hpp"

#include <cmath>

namespace rem::phy {

double LogisticCurve::eval(double snr_db) const {
  const double logistic = 1.0 / (1.0 + std::exp(slope * (snr_db - mid_db)));
  return floor + (1.0 - floor) * logistic;
}

LogisticBlerModel::LogisticBlerModel() {
  // Calibrated to the shapes produced by bench_fig10 on this repo's link
  // simulator (QPSK, rate-1/2 TBCC, 12x14 grid):
  //   low Doppler:  OFDM and OTFS within ~1 dB of each other.
  //   high Doppler: OFDM shifted right by ~5 dB with a ~3% ICI floor;
  //                 OTFS close to its low-Doppler curve.
  curves_[0][0] = {1.0, 1.1, 0.0};    // OFDM, low Doppler
  curves_[0][1] = {6.0, 0.55, 0.03};  // OFDM, high Doppler
  curves_[1][0] = {0.5, 1.3, 0.0};    // OTFS, low Doppler
  curves_[1][1] = {1.5, 1.0, 0.0};    // OTFS, high Doppler
}

double LogisticBlerModel::bler(Waveform w, DopplerRegime d,
                               double snr_db) const {
  return curves_[static_cast<int>(w)][static_cast<int>(d)].eval(snr_db);
}

}  // namespace rem::phy
