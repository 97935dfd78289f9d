#include "channel/multipath.hpp"
#include "channel/noise.hpp"
#include "channel/profiles.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rch = rem::channel;
using rem::dsp::CVec;
using rem::dsp::cd;

TEST(Multipath, SinglePathTfResponse) {
  // One path, no Doppler, delay tau: H(t, f) = h e^{-j 2 pi f tau}.
  rch::Path p;
  p.gain = cd(0.8, 0.3);
  p.delay_s = 1e-6;
  rch::MultipathChannel ch({p});
  const cd h = ch.tf_response(0.0, 1e6);
  const double ang = -2.0 * M_PI * 1e6 * 1e-6;
  const cd expect = p.gain * cd(std::cos(ang), std::sin(ang));
  EXPECT_NEAR(std::abs(h - expect), 0.0, 1e-12);
}

TEST(Multipath, DopplerRotatesOverTime) {
  rch::Path p;
  p.gain = cd(1, 0);
  p.doppler_hz = 100.0;
  rch::MultipathChannel ch({p});
  const cd h0 = ch.tf_response(0.0, 0.0);
  const cd h1 = ch.tf_response(0.0025, 0.0);  // quarter of the 10 ms period
  EXPECT_NEAR(std::abs(h0 - cd(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(h1 - cd(0, 1)), 0.0, 1e-9);
}

TEST(Multipath, NormalizePower) {
  rem::common::Rng rng(1);
  rch::ChannelDrawConfig cfg;
  cfg.profile = rch::Profile::kEVA;
  const auto ch = rch::draw_channel(cfg, rng);
  EXPECT_NEAR(ch.total_power(), 1.0, 1e-12);
}

TEST(Multipath, ApplySignalPreservesPowerForUnitChannel) {
  // Unit-gain single path, no delay/Doppler: output == input.
  rch::Path p;
  p.gain = cd(1, 0);
  rch::MultipathChannel ch({p});
  rem::common::Rng rng(2);
  CVec tx(256);
  for (auto& x : tx) x = rng.complex_gaussian(1.0);
  const CVec rx = ch.apply_to_signal(tx, 1e6);
  for (std::size_t i = 0; i < tx.size(); ++i)
    EXPECT_LT(std::abs(rx[i] - tx[i]), 1e-9);
}

TEST(Multipath, IntegerDelayIsCircularShift) {
  rch::Path p;
  p.gain = cd(1, 0);
  const double fs = 1e6;
  p.delay_s = 3.0 / fs;  // exactly 3 samples
  rch::MultipathChannel ch({p});
  CVec tx(64, cd(0, 0));
  tx[0] = cd(1, 0);
  const CVec rx = ch.apply_to_signal(tx, fs);
  EXPECT_NEAR(std::abs(rx[3] - cd(1, 0)), 0.0, 1e-9);
  for (std::size_t i = 0; i < rx.size(); ++i) {
    if (i != 3) {
      EXPECT_NEAR(std::abs(rx[i]), 0.0, 1e-9);
    }
  }
}

TEST(Multipath, DopplerShiftMovesTone) {
  // A pure Doppler path turns DC into a complex exponential at nu.
  rch::Path p;
  p.gain = cd(1, 0);
  p.doppler_hz = 1000.0;
  rch::MultipathChannel ch({p});
  const double fs = 64000.0;
  CVec tx(64, cd(1, 0));
  const CVec rx = ch.apply_to_signal(tx, fs);
  // Sample 16 is a quarter of the Doppler period (1 ms) at fs.
  const double ang = 2.0 * M_PI * 1000.0 * 16.0 / fs;
  EXPECT_LT(std::abs(rx[16] - cd(std::cos(ang), std::sin(ang))), 1e-9);
}

TEST(Multipath, DdMatrixPeaksAtPathLocation) {
  // Path on exact grid point (k0 * dtau, l0 * dnu) should concentrate
  // essentially all DD energy in bin (k0, l0).
  const std::size_t m = 16, n = 16;
  const double df = 15e3;
  const double symbol_t = 1.0 / df;  // no CP here
  const double dtau = 1.0 / (m * df);
  const double dnu = 1.0 / (n * symbol_t);
  rch::Path p;
  p.gain = cd(1, 0);
  p.delay_s = 3 * dtau;
  p.doppler_hz = 2 * dnu;
  rch::MultipathChannel ch({p});
  const auto h = ch.dd_matrix(m, n, df, symbol_t);
  double peak = std::abs(h(3, 2));
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t l = 0; l < n; ++l)
      if (!(k == 3 && l == 2)) {
        EXPECT_LT(std::abs(h(k, l)), peak * 1e-6)
            << "leakage at (" << k << "," << l << ")";
      }
  // Eq. 5 normalization: on-grid path of unit gain gives |h| = 1.
  EXPECT_NEAR(peak, 1.0, 1e-9);
}

TEST(Multipath, DopplerScaling) {
  rem::common::Rng rng(3);
  rch::ChannelDrawConfig cfg;
  cfg.profile = rch::Profile::kHST350;
  cfg.speed_mps = rem::common::kmh_to_mps(350);
  cfg.carrier_hz = 2.0e9;
  const auto ch = rch::draw_channel(cfg, rng);
  const auto scaled = ch.with_doppler_scaled(0.5);
  ASSERT_EQ(ch.num_paths(), scaled.num_paths());
  for (std::size_t i = 0; i < ch.num_paths(); ++i) {
    EXPECT_DOUBLE_EQ(scaled.paths()[i].doppler_hz,
                     ch.paths()[i].doppler_hz * 0.5);
    EXPECT_EQ(scaled.paths()[i].gain, ch.paths()[i].gain);
    EXPECT_DOUBLE_EQ(scaled.paths()[i].delay_s, ch.paths()[i].delay_s);
  }
}

TEST(Multipath, AdvancedByRotatesGains) {
  rch::Path p;
  p.gain = cd(1, 0);
  p.doppler_hz = 250.0;
  rch::MultipathChannel ch({p});
  const auto adv = ch.advanced_by(1e-3);  // quarter period
  EXPECT_LT(std::abs(adv.paths()[0].gain - cd(0, 1)), 1e-9);
}

class ProfileTest : public ::testing::TestWithParam<rch::Profile> {};

TEST_P(ProfileTest, DrawIsNormalizedAndHasBoundedDoppler) {
  rem::common::Rng rng(17);
  rch::ChannelDrawConfig cfg;
  cfg.profile = GetParam();
  cfg.speed_mps = rem::common::kmh_to_mps(300);
  cfg.carrier_hz = 2.1e9;
  const double nu_max =
      rem::common::max_doppler_hz(cfg.speed_mps, cfg.carrier_hz);
  for (int i = 0; i < 50; ++i) {
    const auto ch = rch::draw_channel(cfg, rng);
    EXPECT_NEAR(ch.total_power(), 1.0, 1e-9);
    EXPECT_GE(ch.num_paths(), tap_specs(GetParam()).size());
    for (const auto& p : ch.paths()) {
      EXPECT_LE(std::abs(p.doppler_hz), nu_max * (1.0 + 1e-9));
      EXPECT_GE(p.delay_s, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileTest,
                         ::testing::Values(rch::Profile::kEPA,
                                           rch::Profile::kEVA,
                                           rch::Profile::kETU,
                                           rch::Profile::kHST350));

TEST(Profiles, HstIsLosDominant) {
  rem::common::Rng rng(23);
  rch::ChannelDrawConfig cfg;
  cfg.profile = rch::Profile::kHST350;
  cfg.speed_mps = rem::common::kmh_to_mps(350);
  cfg.carrier_hz = 2.0e9;
  const double nu_max =
      rem::common::max_doppler_hz(cfg.speed_mps, cfg.carrier_hz);
  int strong_los = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto ch = rch::draw_channel(cfg, rng);
    // The strongest path should be the LOS with |doppler| >= 0.9 nu_max.
    double best = -1;
    double best_doppler = 0;
    for (const auto& p : ch.paths()) {
      if (std::norm(p.gain) > best) {
        best = std::norm(p.gain);
        best_doppler = p.doppler_hz;
      }
    }
    if (std::abs(best_doppler) >= 0.9 * nu_max * 0.999) ++strong_los;
  }
  EXPECT_GT(strong_los, trials * 3 / 4);
}

TEST(Noise, AwgnPowerMatchesRequest) {
  rem::common::Rng rng(31);
  CVec zeros(20000, cd(0, 0));
  rch::add_awgn(zeros, 0.25, rng);
  EXPECT_NEAR(rch::mean_power(zeros), 0.25, 0.01);
}

TEST(Noise, SnrHelper) {
  EXPECT_NEAR(rch::noise_power_for_snr_db(0.0), 1.0, 1e-12);
  EXPECT_NEAR(rch::noise_power_for_snr_db(10.0), 0.1, 1e-12);
}
