// Precomputed FFT plans with a process-wide, thread-safe cache.
//
// The OFDM/OTFS hot loops transform the same handful of lengths (grid
// dimensions like 1200, 600, 64, 14) millions of times per run. A plan
// precomputes everything that depends only on the transform size:
//   * the bit-reversal permutation and a twiddle-factor table for the
//     radix-2 Cooley-Tukey path (table lookups replace the incremental
//     `w *= wlen` recurrence, which accumulates rounding error for large
//     transforms);
//   * for non-power-of-two sizes, the Bluestein chirp vector and the
//     *pre-transformed* spectrum of the chirp convolution kernel, plus a
//     handle to the power-of-two plan used for the convolution.
// Plans are immutable after construction, so a cached plan can be shared
// freely across threads; per-call mutable state lives in an FftScratch the
// caller owns (the free fft()/ifft() wrappers use a thread_local one).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace rem::dsp {

using cd = std::complex<double>;
using CVec = std::vector<cd>;

/// Reusable per-caller workspace. One instance may be reused across any
/// number of transform calls (buffers grow to the largest size seen); it
/// must not be shared between threads concurrently.
struct FftScratch {
  CVec gather;  ///< gather/scatter buffer for strided transforms
  CVec work;    ///< Bluestein convolution buffer (power-of-two length)
};

class FftPlan {
 public:
  /// Build a plan for length-n transforms (n >= 1, any length).
  explicit FftPlan(std::size_t n);

  /// Fetch (or build and cache) the plan for length n. Thread-safe; the
  /// returned plan is immutable and may be shared across threads.
  static std::shared_ptr<const FftPlan> get(std::size_t n);

  /// Number of plans currently cached (for tests/introspection).
  static std::size_t cache_size();

  std::size_t size() const { return n_; }
  bool uses_bluestein() const { return conv_plan_ != nullptr; }

  /// In-place DFT of the n elements base[0], base[stride], ...,
  /// base[(n-1)*stride].
  ///
  /// Forward (invert == false): X[k] = sum_t x[t] e^{-j2pi kt/n}, then each
  /// output is multiplied by `scale`.
  /// Inverse (invert == true): the conventional normalized inverse (1/n
  /// included) multiplied by `scale`; pass scale = 1.0 for a plain ifft.
  void transform(cd* base, std::size_t stride, bool invert, double scale,
                 FftScratch& scratch) const;

 private:
  // Unnormalized in-place radix-2 transform of contiguous data (power-of-two
  // plans only).
  void pow2_exec(cd* a, bool invert) const;
  // Unnormalized in-place forward Bluestein transform of contiguous data.
  void bluestein_forward(cd* a, FftScratch& scratch) const;
  // Unnormalized contiguous transform (either path).
  void exec(cd* a, bool invert, FftScratch& scratch) const;

  std::size_t n_ = 0;

  // Radix-2 tables (power-of-two sizes).
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversal permutation
  CVec twiddle_;                       ///< twiddle_[j] = e^{-j2pi j/n}, j < n/2

  // Bluestein tables (other sizes).
  CVec chirp_;    ///< chirp_[k] = e^{-j pi k^2 / n}
  CVec kernel_;   ///< FFT of the chirp convolution kernel (length conv size)
  std::shared_ptr<const FftPlan> conv_plan_;  ///< pow2 plan for convolution
};

}  // namespace rem::dsp
