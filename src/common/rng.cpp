#include "common/rng.hpp"

namespace rem::common {

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
  const auto twisted = [](result_type word, result_type next,
                          result_type far) {
    const result_type y = (word & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  for (std::size_t k = 0; k < kN - kM; ++k)
    state_[k] = twisted(state_[k], state_[k + 1], state_[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k)
    state_[k] = twisted(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = twisted(state_[kN - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

}  // namespace rem::common
