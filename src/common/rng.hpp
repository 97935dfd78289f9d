// Deterministic random number generation.
//
// All stochastic components (channel fading, shadowing, message loss, trace
// synthesis) draw from an explicitly seeded Rng so that every experiment in
// bench/ is exactly reproducible. Components never construct their own
// std::random_device.
//
// Every stream equals what std::mt19937_64 and libstdc++'s distributions
// produce from the same seed, draw for draw and bit for bit
// (tests/test_common.cpp runs them side by side). The engine and the hot
// draws (canonical, uniform, bernoulli, gaussian) are written here because
// libstdc++'s compile to data-dependent branches that mispredict about half
// the time; uniform_int, exponential and poisson delegate to the std
// distributions. Changing any draw re-baselines every golden, BENCH JSON
// and benchmark fingerprint.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <random>

namespace rem::common {

/// MT19937-64 with std::mt19937_64's seeding recurrence, 312-word state,
/// twist and tempering, so its output stream is std::mt19937_64's. The
/// twist selects the matrix term with a mask instead of a branch.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (pos_ == kStateWords) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  /// Regenerates all kStateWords words and rewinds pos_.
  void twist();

  std::array<result_type, kStateWords> state_;
  std::size_t pos_;
};

/// std::generate_canonical<double, 53> of one engine output x: x / 2^64
/// rounded to nearest, clamped below 1 (x >= 2^64 - 2^10 rounds to 1.0).
/// Both 32-bit halves convert exactly, so their sum rounds once, as the
/// direct uint64 -> double conversion does, but without its sign branch.
inline double to_canonical(std::uint64_t x) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  const double d =
      static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min(d * 0x1p-64, kBelowOne);
}

/// Typed draws over one Mt19937_64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1), one engine draw.
  double canonical() { return to_canonical(engine_()); }

  /// Uniform double in [lo, hi), as std::uniform_real_distribution.
  double uniform(double lo, double hi) {
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal with `mean` and `stddev`: the Marsaglia polar method as a
  /// freshly built std::normal_distribution runs it, so x's variate is
  /// discarded. stddev == 0 returns `mean` after the same draws.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    double y = 0.0, r2 = 0.0;
    do {
      const double x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }

  /// Circularly-symmetric complex Gaussian with total variance
  /// `variance` (i.e. E[|x|^2] = variance).
  std::complex<double> complex_gaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(0.0, s), gaussian(0.0, s)};
  }

  /// Bernoulli trial; always one draw, as std::bernoulli_distribution.
  bool bernoulli(double p) { return canonical() < p; }

  /// Exponential with mean `mean`.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Poisson with mean `mean`. A zero mean draws once and returns 0, as
  /// libstdc++'s release build does (std::poisson_distribution requires a
  /// positive mean).
  int poisson(double mean) {
    if (mean == 0.0) {
      canonical();
      return 0;
    }
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Derive an independent child stream; used to give each subsystem its
  /// own stream so adding draws in one does not perturb another.
  Rng fork() { return Rng(engine_()); }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace rem::common
