#include "channel/geometry.hpp"

#include "common/units.hpp"

#include <cmath>
#include <numbers>

namespace rem::channel {
namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

struct PathGeom {
  double dist_m;
  double cos_angle;  ///< angle between velocity (+x) and train->point
};

PathGeom geom_to(double train_x, double px, double py) {
  const double dx = px - train_x;
  const double dist = std::sqrt(dx * dx + py * py);
  return {std::max(dist, 1.0), dx / std::max(dist, 1.0)};
}
}  // namespace

std::vector<Scatterer> make_scatterer_field(double bs_x_m,
                                            std::size_t count,
                                            common::Rng& rng) {
  std::vector<Scatterer> field;
  field.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Scatterer s;
    s.x_m = bs_x_m + rng.uniform(-800.0, 800.0);
    s.y_m = rng.uniform(20.0, 400.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    s.gain_db = rng.uniform(-20.0, -6.0);
    field.push_back(s);
  }
  return field;
}

MultipathChannel GeometricHstChannel::snapshot(double train_x_m) const {
  PathList paths;
  const double wavelen = common::wavelength_m(cfg_.carrier_hz);

  const auto add_path = [&](double px, double py, double gain_db) {
    const auto g = geom_to(train_x_m, px, py);
    Path p;
    p.delay_s = g.dist_m / common::kSpeedOfLight;
    // Doppler: positive while approaching the point.
    p.doppler_hz = cfg_.speed_mps * g.cos_angle * cfg_.carrier_hz /
                   common::kSpeedOfLight;
    // Free-space-like amplitude roll-off with the reflection loss, and a
    // carrier phase tied to the absolute path length so consecutive
    // snapshots stay coherent.
    const double amp =
        std::pow(10.0, gain_db / 20.0) * (100.0 / g.dist_m);
    const double phase = -kTwoPi * g.dist_m / wavelen;
    p.gain = amp * std::complex<double>(std::cos(phase), std::sin(phase));
    paths.push_back(p);
  };

  add_path(cfg_.bs_x_m, cfg_.bs_y_m, 0.0);  // LOS
  for (const auto& s : cfg_.scatterers) add_path(s.x_m, s.y_m, s.gain_db);

  MultipathChannel ch(std::move(paths));
  ch.normalize_power();
  return ch;
}

double GeometricHstChannel::los_doppler_hz(double train_x_m) const {
  const auto g = geom_to(train_x_m, cfg_.bs_x_m, cfg_.bs_y_m);
  return cfg_.speed_mps * g.cos_angle * cfg_.carrier_hz /
         common::kSpeedOfLight;
}

double GeometricHstChannel::los_delay_s(double train_x_m) const {
  return geom_to(train_x_m, cfg_.bs_x_m, cfg_.bs_y_m).dist_m /
         common::kSpeedOfLight;
}

}  // namespace rem::channel
