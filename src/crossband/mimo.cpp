#include "crossband/mimo.hpp"

namespace rem::crossband {

MimoOutput MimoRemEstimator::estimate(const MimoInput& in) {
  MimoOutput out;
  RemSvdEstimator est(cfg_);
  for (const auto& antenna : in.antennas) {
    out.per_antenna.push_back(est.estimate(antenna));
    out.mrc_gain += out.per_antenna.back().mean_gain;
  }
  return out;
}

}  // namespace rem::crossband
