#include "phy/bler_model.hpp"

#include <gtest/gtest.h>

namespace rp = rem::phy;

TEST(LogisticCurve, ShapeAndLimits) {
  rp::LogisticCurve c{5.0, 1.0, 0.02};
  EXPECT_NEAR(c.eval(5.0), 0.02 + 0.98 * 0.5, 1e-9);  // midpoint
  EXPECT_GT(c.eval(-20.0), 0.99);                      // saturates at 1
  EXPECT_NEAR(c.eval(40.0), 0.02, 1e-3);               // floor remains
}

TEST(LogisticCurve, MonotoneDecreasing) {
  rp::LogisticCurve c{3.0, 0.8, 0.0};
  double prev = 1.1;
  for (double snr = -20.0; snr <= 30.0; snr += 0.5) {
    const double b = c.eval(snr);
    EXPECT_LE(b, prev + 1e-12);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    prev = b;
  }
}

TEST(LogisticBlerModel, DefaultOrderingMatchesFig10) {
  rp::LogisticBlerModel m;
  // At moderate SNR under high Doppler, OTFS beats OFDM clearly.
  for (double snr : {4.0, 8.0, 12.0}) {
    EXPECT_LT(m.bler(rp::Waveform::kOTFS, rp::DopplerRegime::kHigh, snr),
              m.bler(rp::Waveform::kOFDM, rp::DopplerRegime::kHigh, snr))
        << snr;
  }
  // OFDM keeps an error floor at high Doppler; OTFS does not.
  EXPECT_GT(m.bler(rp::Waveform::kOFDM, rp::DopplerRegime::kHigh, 30.0),
            0.01);
  EXPECT_LT(m.bler(rp::Waveform::kOTFS, rp::DopplerRegime::kHigh, 30.0),
            0.01);
  // Low Doppler: both decent, within a couple dB.
  EXPECT_LT(m.bler(rp::Waveform::kOFDM, rp::DopplerRegime::kLow, 15.0),
            0.05);
}
