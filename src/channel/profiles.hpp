// 3GPP reference tapped-delay-line profiles and channel sampling.
//
// Tap delay/power tables follow TS 36.101/36.104 Annex B (EPA, EVA, ETU).
// The high-speed-train profiles (HST) are LOS-dominant Rician channels with
// near-maximum Doppler, per TS 36.101 B.3 and the deployment geometry the
// paper cites (80-550 m LOS distance along the rails).
#pragma once

#include "channel/multipath.hpp"
#include "common/rng.hpp"

#include <string>
#include <vector>

namespace rem::channel {

enum class Profile {
  kEPA,     ///< Extended Pedestrian A (7 taps, low delay spread)
  kEVA,     ///< Extended Vehicular A (9 taps)
  kETU,     ///< Extended Typical Urban (9 taps, large delay spread)
  kHST350,  ///< High-speed train, Rician LOS + sparse scatterers
};

std::string profile_name(Profile p);

/// One tap of a reference profile (before fading realization).
struct TapSpec {
  double delay_ns;
  double power_db;
};

/// Static tap table for a profile.
const std::vector<TapSpec>& tap_specs(Profile p);

/// Parameters for drawing a random channel realization.
struct ChannelDrawConfig {
  Profile profile = Profile::kEVA;
  double speed_mps = 0.0;        ///< client speed, sets max Doppler
  double carrier_hz = 2.0e9;     ///< carrier frequency
};

/// Draw a random realization: each tap gets a complex Gaussian (Rayleigh)
/// gain scaled to its profile power and a Doppler nu_max * cos(theta) with a
/// uniform arrival angle (Jakes model). HST350 instead uses a dominant LOS
/// tap with near-maximal Doppler plus weaker scattered taps. The drawn
/// channel's total power is normalized to 1.
MultipathChannel draw_channel(const ChannelDrawConfig& cfg,
                              common::Rng& rng);

}  // namespace rem::channel
