#include "channel/profiles.hpp"

#include "common/units.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rem::channel {
namespace {
constexpr double kPi = std::numbers::pi;
/// LOS-to-scatter power ratio of the HST350 profile's first tap.
constexpr double kRicianKDb = 10.0;

const std::vector<TapSpec> kEpaTaps = {
    {0, 0.0}, {30, -1.0}, {70, -2.0}, {90, -3.0},
    {110, -8.0}, {190, -17.2}, {410, -20.8},
};
const std::vector<TapSpec> kEvaTaps = {
    {0, 0.0},    {30, -1.5},   {150, -1.4}, {310, -3.6}, {370, -0.6},
    {710, -9.1}, {1090, -7.0}, {1730, -12.0}, {2510, -16.9},
};
const std::vector<TapSpec> kEtuTaps = {
    {0, -1.0},  {50, -1.0},  {120, -1.0}, {200, 0.0}, {230, 0.0},
    {500, 0.0}, {1600, -3.0}, {2300, -5.0}, {5000, -7.0},
};
// Sparse high-speed-rail profile: strong LOS, a ground/viaduct reflection,
// and two far scatterers; delays match 80-550 m excess path lengths.
const std::vector<TapSpec> kHstTaps = {
    {0, 0.0}, {100, -6.0}, {400, -12.0}, {900, -16.0},
};
}  // namespace

std::string profile_name(Profile p) {
  switch (p) {
    case Profile::kEPA: return "EPA";
    case Profile::kEVA: return "EVA";
    case Profile::kETU: return "ETU";
    case Profile::kHST350: return "HST350";
  }
  return "?";
}

const std::vector<TapSpec>& tap_specs(Profile p) {
  switch (p) {
    case Profile::kEPA: return kEpaTaps;
    case Profile::kEVA: return kEvaTaps;
    case Profile::kETU: return kEtuTaps;
    case Profile::kHST350: return kHstTaps;
  }
  throw std::invalid_argument("unknown channel profile");
}

MultipathChannel draw_channel(const ChannelDrawConfig& cfg,
                              common::Rng& rng) {
  const auto& taps = tap_specs(cfg.profile);
  const double nu_max =
      common::max_doppler_hz(cfg.speed_mps, cfg.carrier_hz);
  PathList paths;
  paths.reserve(taps.size());

  if (cfg.profile == Profile::kHST350) {
    // Rician LOS on the first tap: deterministic component at a Doppler
    // close to +/- nu_max (train approaching or receding), plus diffuse
    // scatterers at random Jakes angles.
    const double k_lin = common::db_to_lin(kRicianKDb);
    for (std::size_t i = 0; i < taps.size(); ++i) {
      const double tap_power = common::db_to_lin(taps[i].power_db);
      Path p;
      p.delay_s = taps[i].delay_ns * 1e-9;
      if (i == 0) {
        // Split the first tap into LOS + diffuse per the K factor.
        const double los_power = tap_power * k_lin / (1.0 + k_lin);
        const double nlos_power = tap_power / (1.0 + k_lin);
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        const double phase = rng.uniform(0.0, 2.0 * kPi);
        Path los;
        los.delay_s = p.delay_s;
        // cos(angle) in [0.9, 1]: LOS nearly aligned with the track.
        los.doppler_hz = sign * nu_max * rng.uniform(0.9, 1.0);
        los.gain = std::sqrt(los_power) *
                   std::complex<double>(std::cos(phase), std::sin(phase));
        paths.push_back(los);
        p.gain = rng.complex_gaussian(nlos_power);
        p.doppler_hz = nu_max * std::cos(rng.uniform(0.0, 2.0 * kPi));
        paths.push_back(p);
      } else {
        p.gain = rng.complex_gaussian(tap_power);
        p.doppler_hz = nu_max * std::cos(rng.uniform(0.0, 2.0 * kPi));
        paths.push_back(p);
      }
    }
  } else {
    for (const auto& tap : taps) {
      Path p;
      p.delay_s = tap.delay_ns * 1e-9;
      p.gain = rng.complex_gaussian(common::db_to_lin(tap.power_db));
      p.doppler_hz = nu_max * std::cos(rng.uniform(0.0, 2.0 * kPi));
      paths.push_back(p);
    }
  }

  MultipathChannel ch(std::move(paths));
  ch.normalize_power();
  return ch;
}

}  // namespace rem::channel
