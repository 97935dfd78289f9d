// Geometry-driven high-speed-rail channel (the paper's §10 "explicit sheer
// geometric modeling").
//
// Instead of drawing i.i.d. tap realizations, this model places the base
// station and scatterers in the plane and derives every path's delay,
// Doppler, and attenuation from the *actual* train position and velocity:
//   tau_p = |train - reflector path| / c
//   nu_p  = (v . unit_vector(train -> scatterer)) * f / c
// Consecutive snapshots are therefore physically consistent — delays and
// Dopplers drift exactly as Appendix A predicts (slowly, by inertia),
// which is what makes movement-based management viable.
#pragma once

#include "channel/multipath.hpp"
#include "common/rng.hpp"

#include <vector>

namespace rem::channel {

/// A point scatterer (or the base station itself for the LOS path).
struct Scatterer {
  double x_m = 0.0;        ///< along-track position
  double y_m = 0.0;        ///< lateral offset from the rails
  double gain_db = 0.0;    ///< reflection loss relative to LOS
};

struct GeometryConfig {
  double bs_x_m = 0.0;
  double bs_y_m = 150.0;    ///< lateral distance (paper: 80-550 m)
  double carrier_hz = 2.0e9;
  double speed_mps = 97.2;  ///< 350 km/h
  /// Scatterers around the track (reflections bounce train->scatterer->BS
  /// is approximated as an excess-length path train->scatterer with the
  /// scatterer's gain; adequate for delay/Doppler geometry studies).
  std::vector<Scatterer> scatterers;
};

/// Random scatterer field along the track around `bs_x_m`.
std::vector<Scatterer> make_scatterer_field(double bs_x_m, std::size_t count,
                                            common::Rng& rng);

class GeometricHstChannel {
 public:
  explicit GeometricHstChannel(GeometryConfig cfg) : cfg_(std::move(cfg)) {}

  const GeometryConfig& config() const { return cfg_; }

  /// Channel snapshot when the train is at along-track position `x_m`
  /// (moving in +x at the configured speed), normalized to unit power.
  /// Path phases are referenced to the absolute path lengths, so
  /// consecutive snapshots are coherent.
  MultipathChannel snapshot(double train_x_m) const;

  /// Ground-truth LOS Doppler at a position (for tests/benches).
  double los_doppler_hz(double train_x_m) const;
  /// Ground-truth LOS delay at a position.
  double los_delay_s(double train_x_m) const;

 private:
  GeometryConfig cfg_;
};

}  // namespace rem::channel
