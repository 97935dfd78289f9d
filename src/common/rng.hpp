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
//
// Batches. `Mt19937_64::fill` returns the next n engine words and
// `Rng::normals` the next n standard normals, each exactly what n single
// calls would return, leaving the stream where those calls would leave it.
// A caller that knows how many normals it needs before it reads the first
// (a shadowing grid, one tick's candidate variates) should batch them:
// the twist and tempering run two words per instruction, and the polar
// method's accept/reject becomes a branch-free compaction, so a batched
// normal costs about 25 ns against about 40 ns per `gaussian()` call (GCC
// 12, -O2, x86-64 Xeon). A caller whose later draws depend on an earlier
// value, or that draws one or two at a time, gains nothing from batching.
// A caller that must draw variates it will not read, to keep the stream
// where later draws expect it, takes them from `Rng::normals_partial`:
// every trial is drawn, and only the slots read are transformed.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

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
    return temper(state_[pos_++]);
  }

  /// Writes the next n outputs to out[0..n): the same words, and the same
  /// stream position afterwards, as n calls of operator().
  void fill(result_type* out, std::size_t n);

 private:
  static constexpr std::size_t kStateWords = 312;

  /// MT19937-64's output tempering of one state word. A template so fill()
  /// runs the same formula over two-word vectors.
  template <typename Word>
  static Word temper(Word z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

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
    PolarTrial p{};
    do {
      const std::uint64_t wx = engine_();
      p = polar_trial(wx, engine_());
    } while (!p.accepted);
    return polar_normal(p.y, p.r2) * stddev + mean;
  }

  /// Fills `z` with the next z.size() standard normals: the values
  /// z.size() successive gaussian() calls would return before their
  /// `* stddev + mean` (so `z[i] * stddev + mean` is the i-th call's
  /// gaussian(mean, stddev)), leaving the stream where those calls would.
  /// Uses only fixed stack buffers.
  void normals(std::span<double> z) { normals_partial(z, 1, 1); }

  /// normals(z) with the polar transform (a log, a square root and a
  /// division) run only on the slots a caller reads: slot i holds its
  /// normal when bit `i % period` of `phases` is set and NaN otherwise.
  /// Every trial is still drawn, so the stream ends where normals(z)
  /// leaves it. For z laid out as `period` variates per item, `phases`
  /// names the variates read. Throws std::invalid_argument unless
  /// 1 <= period <= 32.
  void normals_partial(std::span<double> z, std::size_t period,
                       std::uint32_t phases);

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
  /// One trial of the Marsaglia polar method on two engine words: the
  /// point (2u - 1, 2v - 1) with u, v their canonical doubles, its squared
  /// radius, and whether the method keeps it (0 < r2 <= 1). Written
  /// without a branch, so a batch can compact accepted trials by
  /// `j += accepted`. gaussian() and normals() share it and polar_normal.
  struct PolarTrial {
    double y;
    double r2;
    bool accepted;
  };
  static PolarTrial polar_trial(std::uint64_t wx, std::uint64_t wy) {
    const double x = 2.0 * to_canonical(wx) - 1.0;
    const double y = 2.0 * to_canonical(wy) - 1.0;
    const double r2 = x * x + y * y;
    return {y, r2, !((r2 > 1.0) | (r2 == 0.0))};
  }

  /// The standard normal of an accepted polar trial: its y variate (the
  /// x variate is discarded, as std::normal_distribution does when freshly
  /// built).
  static double polar_normal(double y, double r2) {
    return y * std::sqrt(-2.0 * std::log(r2) / r2);
  }

  Mt19937_64 engine_;
};

}  // namespace rem::common
