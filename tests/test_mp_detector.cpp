#include "channel/multipath.hpp"
#include "channel/noise.hpp"
#include "channel/profiles.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "phy/mp_detector.hpp"
#include "phy/otfs.hpp"

#include <gtest/gtest.h>

namespace rp = rem::phy;
namespace rch = rem::channel;
using rem::dsp::Matrix;
using rem::dsp::cd;

namespace {

rp::Numerology small_grid() {
  rp::Numerology num;
  num.num_subcarriers = 16;
  num.num_symbols = 8;
  num.cp_len = 4;
  return num;
}

// Run the full OTFS chain and detect with MP; returns symbol error count.
struct ChainResult {
  std::size_t symbol_errors = 0;
  std::size_t total = 0;
  rp::MpResult mp;
  std::vector<cd> tx_syms;
};

ChainResult run_chain(const rch::MultipathChannel& ch, double snr_db,
                      rp::Modulation mod, rem::common::Rng& rng) {
  const auto num = small_grid();
  const std::size_t m = num.num_subcarriers;
  const std::size_t n = num.num_symbols;
  // Random data grid.
  std::vector<std::uint8_t> bits(m * n * rp::bits_per_symbol(mod));
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto syms = rp::qam_modulate(bits, mod);
  Matrix dd(m, n);
  std::size_t idx = 0;
  for (std::size_t col = 0; col < n; ++col)
    for (std::size_t row = 0; row < m; ++row) dd(row, col) = syms[idx++];

  rp::OtfsModem modem(num);
  auto rx = ch.apply_to_signal(modem.modulate(dd), num.sample_rate_hz());
  rch::add_awgn(rx, rch::noise_power_for_snr_db(snr_db), rng);
  const Matrix y = modem.demodulate(rx);

  // Channel taps from the analytic DD samples (pilot-grade knowledge).
  const auto dd_h = ch.dd_matrix(m, n, num.subcarrier_spacing_hz,
                                 num.symbol_duration_s(), num.cp_len);
  const auto taps = rp::extract_dd_taps(dd_h);

  ChainResult out;
  out.mp = rp::mp_detect(y, taps, mod, rch::noise_power_for_snr_db(snr_db));
  out.tx_syms = syms;
  out.total = syms.size();
  const auto& constel = rp::constellation(mod);
  for (std::size_t i = 0; i < syms.size(); ++i) {
    // Hard decision from the posterior mean.
    std::size_t best = 0;
    double bd = 1e18;
    for (std::size_t s = 0; s < constel.size(); ++s) {
      const double d = std::norm(out.mp.symbols[i] - constel[s]);
      if (d < bd) {
        bd = d;
        best = s;
      }
    }
    if (std::abs(constel[best] - syms[i]) > 1e-9) ++out.symbol_errors;
  }
  return out;
}

}  // namespace

TEST(DdTaps, ExtractFindsOnGridPath) {
  const auto num = small_grid();
  rch::Path p;
  p.gain = cd(0.9, 0.2);
  p.delay_s = 2.0 * num.delay_res_s();
  p.doppler_hz = 3.0 * num.doppler_res_hz();
  rch::MultipathChannel ch({p});
  const auto dd_h = ch.dd_matrix(16, 8, num.subcarrier_spacing_hz,
                                 num.symbol_duration_s(), num.cp_len);
  const auto taps = rp::extract_dd_taps(dd_h);
  ASSERT_FALSE(taps.empty());
  EXPECT_EQ(taps[0].delay_bin, 2u);
  EXPECT_EQ(taps[0].doppler_bin, 3u);
  EXPECT_LT(std::abs(std::abs(taps[0].gain) - std::abs(p.gain)), 0.05);
}

TEST(DdTaps, EmptyChannel) {
  EXPECT_TRUE(rp::extract_dd_taps(Matrix(8, 8)).empty());
}

TEST(DdTaps, CapRespected) {
  rem::common::Rng rng(1);
  Matrix h(16, 16);
  for (auto& x : h.data()) x = rng.complex_gaussian(1.0);
  EXPECT_LE(rp::extract_dd_taps(h, 0.0, 10).size(), 10u);
}

TEST(MpDetector, PerfectAtHighSnrSinglePath) {
  rem::common::Rng rng(2);
  rch::Path p;
  p.gain = cd(1, 0);
  rch::MultipathChannel ch({p});
  const auto res = run_chain(ch, 25.0, rp::Modulation::kQPSK, rng);
  EXPECT_EQ(res.symbol_errors, 0u);
  EXPECT_GE(res.mp.iterations, 1u);
}

TEST(MpDetector, ResolvesOnGridTwoPathInterference) {
  // Two on-grid paths: the DD twisted convolution mixes symbols; MP must
  // untangle them at high SNR.
  rem::common::Rng rng(3);
  const auto num = small_grid();
  rch::Path p1, p2;
  p1.gain = cd(0.85, 0.0);
  p2.gain = cd(0.4, 0.3);
  p2.delay_s = 1.0 * num.delay_res_s();
  p2.doppler_hz = 2.0 * num.doppler_res_hz();
  rch::MultipathChannel ch({p1, p2});
  ch.normalize_power();
  const auto res = run_chain(ch, 24.0, rp::Modulation::kQPSK, rng);
  EXPECT_LE(res.symbol_errors, res.total / 50);
}

TEST(MpDetector, LlrSignsMatchDecisions) {
  rem::common::Rng rng(4);
  rch::Path p;
  p.gain = cd(1, 0);
  rch::MultipathChannel ch({p});
  const auto res = run_chain(ch, 20.0, rp::Modulation::kQPSK, rng);
  // For every correctly detected symbol the LLR signs must reproduce the
  // transmitted bits.
  const auto bits = rp::qam_demodulate_hard(res.tx_syms,
                                            rp::Modulation::kQPSK);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < res.total; ++i) {
    if (std::abs(res.mp.symbols[i] - res.tx_syms[i]) > 0.3) continue;
    for (std::size_t b = 0; b < 2; ++b) {
      const double llr = res.mp.llrs[i * 2 + b];
      EXPECT_EQ(llr < 0, bits[i * 2 + b] == 1) << "sym " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, res.total);  // most symbols were confident
}

TEST(MpDetector, DegradesGracefullyAtLowSnr) {
  rem::common::Rng rng(5);
  rch::Path p;
  p.gain = cd(1, 0);
  rch::MultipathChannel ch({p});
  const auto good = run_chain(ch, 18.0, rp::Modulation::kQPSK, rng);
  const auto bad = run_chain(ch, -5.0, rp::Modulation::kQPSK, rng);
  EXPECT_LT(good.symbol_errors, bad.symbol_errors);
  EXPECT_GT(bad.symbol_errors, 0u);
}

TEST(MpDetector, HandlesHstDopplerChannel) {
  rem::common::Rng rng(6);
  rch::ChannelDrawConfig draw;
  draw.profile = rch::Profile::kHST350;
  draw.speed_mps = rem::common::kmh_to_mps(350.0);
  draw.carrier_hz = 2.0e9;
  std::size_t errors = 0, total = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto ch = rch::draw_channel(draw, rng);
    const auto res = run_chain(ch, 16.0, rp::Modulation::kQPSK, rng);
    errors += res.symbol_errors;
    total += res.total;
  }
  // Off-grid leakage makes this imperfect, but the symbol error rate
  // should be low at 16 dB.
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total),
            0.08)
      << errors << "/" << total;
}

TEST(MpDetector, EmptyTapsReturnsZeros) {
  const auto res =
      rp::mp_detect(Matrix(4, 4), {}, rp::Modulation::kQPSK, 0.1);
  EXPECT_EQ(res.symbols.size(), 16u);
  for (const auto& s : res.symbols) EXPECT_EQ(s, cd(0, 0));
}
