#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

using rem::dsp::cd;
using rem::dsp::CVec;
using rem::dsp::FftPlan;
using rem::dsp::FftScratch;

namespace {

CVec random_vec(std::size_t n, rem::common::Rng& rng) {
  CVec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

double max_err(const CVec& a, const CVec& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// Direct O(n^2) DFT as the reference.
CVec dft_ref(const CVec& x) {
  const std::size_t n = x.size();
  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cd sum(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(k * t) / static_cast<double>(n);
      sum += x[t] * cd(std::cos(ang), std::sin(ang));
    }
    out[k] = sum;
  }
  return out;
}

}  // namespace

// The plan-cache twiddle tables come straight from cos/sin per entry, so
// round-trip error stays tiny even for large transforms where the old
// incremental `w *= wlen` recurrence drifted.
class PlanRoundTripTight : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanRoundTripTight, RoundTripErrorBelow1e10) {
  const std::size_t n = GetParam();
  rem::common::Rng rng(n + 17);
  const CVec x = random_vec(n, rng);
  CVec y = x;
  rem::dsp::fft(y);
  rem::dsp::ifft(y);
  EXPECT_LT(max_err(x, y), 1e-10) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2UpTo64k, PlanRoundTripTight,
                         ::testing::Values(2, 16, 256, 1024, 4096, 16384,
                                           65536));

INSTANTIATE_TEST_SUITE_P(BluesteinAwkward, PlanRoundTripTight,
                         ::testing::Values(1, 12, 600, 1499));

TEST(FftPlan, MatchesDirectDftBluestein) {
  for (const std::size_t n : {1UL, 12UL, 600UL}) {
    rem::common::Rng rng(n);
    const CVec x = random_vec(n, rng);
    const CVec ref = dft_ref(x);
    CVec y = x;
    rem::dsp::fft(y);
    EXPECT_LT(max_err(ref, y), 1e-8 * std::max<double>(1.0, n)) << "n=" << n;
  }
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const auto a = FftPlan::get(600);
  const auto b = FftPlan::get(600);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(FftPlan::cache_size(), 1u);
}

TEST(FftPlan, BluesteinPlanSharesPow2ConvPlan) {
  const auto p = FftPlan::get(600);
  EXPECT_TRUE(p->uses_bluestein());
  const auto q = FftPlan::get(1024);
  EXPECT_FALSE(q->uses_bluestein());
}

TEST(FftPlan, TransformMatchesFreeFunctions) {
  for (const std::size_t n : {64UL, 60UL}) {
    rem::common::Rng rng(n + 3);
    const CVec x = random_vec(n, rng);

    CVec a = x;
    rem::dsp::fft(a);
    CVec b = x;
    FftScratch scratch;
    FftPlan::get(n)->transform(b.data(), 1, false, 1.0, scratch);
    EXPECT_LT(max_err(a, b), 1e-12);

    CVec c = x;
    rem::dsp::ifft(c);
    CVec d = x;
    FftPlan::get(n)->transform(d.data(), 1, true, 1.0, scratch);
    EXPECT_LT(max_err(c, d), 1e-12);
  }
}

TEST(FftPlan, ScaleIsAppliedAfterTransform) {
  const std::size_t n = 32;
  rem::common::Rng rng(5);
  const CVec x = random_vec(n, rng);
  FftScratch scratch;
  CVec a = x;
  FftPlan::get(n)->transform(a.data(), 1, false, 2.5, scratch);
  CVec b = x;
  rem::dsp::fft(b);
  for (auto& v : b) v *= 2.5;
  EXPECT_LT(max_err(a, b), 1e-12);
}

// A strided transform over an interleaved buffer must equal gathering the
// stride into a contiguous vector, transforming, and scattering back.
class PlanStrided
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PlanStrided, MatchesGatherTransformScatter) {
  const auto [n, stride] = GetParam();
  rem::common::Rng rng(n * 31 + stride);
  CVec buf(n * stride);
  for (auto& v : buf) v = rng.complex_gaussian(1.0);
  const CVec orig = buf;

  for (const bool invert : {false, true}) {
    CVec strided = orig;
    FftScratch scratch;
    FftPlan::get(n)->transform(strided.data(), stride, invert, 1.0, scratch);

    CVec ref_vec(n);
    for (std::size_t k = 0; k < n; ++k) ref_vec[k] = orig[k * stride];
    if (invert)
      rem::dsp::ifft(ref_vec);
    else
      rem::dsp::fft(ref_vec);

    for (std::size_t k = 0; k < n; ++k)
      EXPECT_LT(std::abs(strided[k * stride] - ref_vec[k]), 1e-12)
          << "n=" << n << " stride=" << stride << " invert=" << invert;
    // Elements off the stride must be untouched.
    for (std::size_t i = 0; i < buf.size(); ++i)
      if (i % stride != 0) {
        EXPECT_EQ(strided[i], orig[i]) << "clobbered off-stride element";
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanStrided,
    ::testing::Values(std::pair<std::size_t, std::size_t>{8, 3},
                      std::pair<std::size_t, std::size_t>{16, 14},
                      std::pair<std::size_t, std::size_t>{12, 5},
                      std::pair<std::size_t, std::size_t>{600, 14}));

TEST(FftPlan, ScratchReuseAcrossSizesIsSafe) {
  FftScratch scratch;
  rem::common::Rng rng(23);
  for (const std::size_t n : {600UL, 64UL, 1499UL, 8UL}) {
    const CVec x = random_vec(n, rng);
    CVec y = x;
    FftPlan::get(n)->transform(y.data(), 1, false, 1.0, scratch);
    FftPlan::get(n)->transform(y.data(), 1, true, 1.0, scratch);
    EXPECT_LT(max_err(x, y), 1e-10) << "n=" << n;
  }
}
