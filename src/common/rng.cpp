#include "common/rng.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace rem::common {
namespace {

/// Two 64-bit words in one SSE2 register (GCC/Clang vector extension):
/// the twist and the tempering are shifts, ands and xors, which act on
/// each lane as on a scalar word.
using Words2 = std::uint64_t __attribute__((vector_size(16)));

Words2 load2(const std::uint64_t* p) {
  Words2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(std::uint64_t* p, Words2 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : pos_(kStateWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = (x ^ (x >> 62)) * 6364136223846793005ULL + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t kN = kStateWords, kM = 156;
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr result_type kUpper = ~result_type{0} << 31;
  // Word k becomes word (k + kM) % kN ^ (y >> 1) ^ (y odd ? kMatrixA : 0),
  // where y joins word k's upper 33 bits to word (k + 1) % kN's lower 31.
  const auto twisted = [](auto word, auto next, auto far) {
    const auto y = (word & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  // Two words per step. A pair reads words k + 1 and k + 2 before writing
  // k and k + 1, as the scalar order does (word k + 1 is read before it is
  // rewritten), and every far word it reads is already final or untouched.
  static_assert((kN - kM) % 2 == 0, "the first loop ends on a pair");
  result_type* s = state_.data();
  std::size_t k = 0;
  for (; k < kN - kM; k += 2)
    store2(s + k, twisted(load2(s + k), load2(s + k + 1), load2(s + k + kM)));
  for (; k + 2 < kN; k += 2)
    store2(s + k,
           twisted(load2(s + k), load2(s + k + 1), load2(s + k + kM - kN)));
  for (; k < kN - 1; ++k) s[k] = twisted(s[k], s[k + 1], s[k + kM - kN]);
  s[kN - 1] = twisted(s[kN - 1], s[0], s[kM - 1]);
  pos_ = 0;
}

void Mt19937_64::fill(result_type* out, std::size_t n) {
  while (n > 0) {
    if (pos_ == kStateWords) twist();
    const std::size_t take = std::min(n, kStateWords - pos_);
    const result_type* s = state_.data() + pos_;
    std::size_t i = 0;
    for (; i + 2 <= take; i += 2) store2(out + i, temper(load2(s + i)));
    if (i < take) out[i] = temper(s[i]);
    pos_ += take;
    out += take;
    n -= take;
  }
}

void Rng::normals_partial(std::span<double> z, std::size_t period,
                          std::uint32_t phases) {
  if (period < 1 || period > 32)
    throw std::invalid_argument("Rng::normals_partial: period " +
                                std::to_string(period) +
                                " is outside [1, 32]");
  // Each chunk of up to kChunk outputs runs rounds of (outputs missing)
  // polar trials: a round's words come in one fill(), each trial writes
  // its (y, r2) to slot j and advances j only if accepted, so a round
  // ends at the last output still missing at the latest, and the last
  // word taken is the last accepted trial's, as in gaussian(). The y's
  // are kept in z itself until the transform. Both buffers are written
  // before they are read, so they are left uninitialised: zeroing them
  // would cost about as much as a tick's candidate normals.
  constexpr std::size_t kChunk = 256;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::array<std::uint64_t, 2 * kChunk> words;
  std::array<double, kChunk> r2;
  for (std::size_t base = 0; base < z.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, z.size() - base);
    double* y = z.data() + base;
    for (std::size_t j = 0; j < count;) {
      const std::size_t trials = count - j;
      engine_.fill(words.data(), 2 * trials);
      for (std::size_t t = 0; t < trials; ++t) {
        const PolarTrial p = polar_trial(words[2 * t], words[2 * t + 1]);
        y[j] = p.y;
        r2[j] = p.r2;
        j += p.accepted;
      }
    }
    // One phase at a time; the chunk's slot 0 is slot `base` of z.
    for (std::size_t ph = 0; ph < period; ++ph) {
      std::size_t i = (ph + period - base % period) % period;
      if ((phases >> ph) & 1u) {
        for (; i < count; i += period) y[i] = polar_normal(y[i], r2[i]);
      } else {
        for (; i < count; i += period) y[i] = kNaN;
      }
    }
  }
}

}  // namespace rem::common
