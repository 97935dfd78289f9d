#include "dsp/fft_plan.hpp"

#include "dsp/fft.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace rem::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

struct PlanCache {
  std::mutex mu;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> plans;
};

PlanCache& cache() {
  static PlanCache c;
  return c;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("FftPlan: n must be >= 1");
  if (is_pow2(n)) {
    // Bit-reversal permutation.
    bitrev_.resize(n);
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      bitrev_[i] = static_cast<std::uint32_t>(j);
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
    }
    // Forward twiddles for the largest stage; stage `len` uses every
    // (n/len)-th entry. Each value comes straight from cos/sin, so there is
    // no accumulated recurrence error even at n = 2^16 and beyond.
    twiddle_.resize(n / 2);
    for (std::size_t j = 0; j < n / 2; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(j) /
                         static_cast<double>(n);
      twiddle_[j] = cd(std::cos(ang), std::sin(ang));
    }
    return;
  }

  // Bluestein chirp-z tables. chirp[k] = e^{-j pi k^2 / n}, with k^2 taken
  // mod 2n to keep the angle bounded (avoids precision loss for large k).
  chirp_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double ang = -kPi * static_cast<double>(k2) /
                       static_cast<double>(n);
    chirp_[k] = cd(std::cos(ang), std::sin(ang));
  }
  const std::size_t m = next_pow2(2 * n - 1);
  conv_plan_ = FftPlan::get(m);
  // Convolution kernel b[k] = conj(chirp[k]) wrapped circularly, stored
  // already transformed so each call pays one forward FFT instead of two.
  kernel_.assign(m, cd(0, 0));
  kernel_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n; ++k)
    kernel_[k] = kernel_[m - k] = std::conj(chirp_[k]);
  conv_plan_->pow2_exec(kernel_.data(), false);
}

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n) {
  auto& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    const auto it = c.plans.find(n);
    if (it != c.plans.end()) return it->second;
  }
  // Build outside the lock: Bluestein construction recursively fetches the
  // power-of-two convolution plan. Two threads may race to build the same
  // plan; the first insert wins and the loser's copy is dropped.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(c.mu);
  return c.plans.emplace(n, std::move(plan)).first->second;
}

std::size_t FftPlan::cache_size() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.plans.size();
}

void FftPlan::pow2_exec(cd* a, bool invert) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        cd w = twiddle_[k * step];
        if (invert) w = std::conj(w);
        const cd u = a[i + k];
        const cd v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
      }
    }
  }
}

void FftPlan::bluestein_forward(cd* a, FftScratch& scratch) const {
  const std::size_t n = n_;
  const std::size_t m = conv_plan_->size();
  scratch.work.assign(m, cd(0, 0));
  cd* fa = scratch.work.data();
  for (std::size_t k = 0; k < n; ++k) fa[k] = a[k] * chirp_[k];
  conv_plan_->pow2_exec(fa, false);
  for (std::size_t k = 0; k < m; ++k) fa[k] *= kernel_[k];
  conv_plan_->pow2_exec(fa, true);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) a[k] = fa[k] * inv_m * chirp_[k];
}

void FftPlan::exec(cd* a, bool invert, FftScratch& scratch) const {
  if (conv_plan_ == nullptr) {
    pow2_exec(a, invert);
    return;
  }
  if (!invert) {
    bluestein_forward(a, scratch);
    return;
  }
  // Unnormalized inverse via conjugation: idft(x) = conj(dft(conj(x))).
  for (std::size_t k = 0; k < n_; ++k) a[k] = std::conj(a[k]);
  bluestein_forward(a, scratch);
  for (std::size_t k = 0; k < n_; ++k) a[k] = std::conj(a[k]);
}

void FftPlan::transform(cd* base, std::size_t stride, bool invert,
                        double scale, FftScratch& scratch) const {
  const std::size_t n = n_;
  const double eff_scale =
      invert ? scale / static_cast<double>(n) : scale;
  if (stride == 1) {
    exec(base, invert, scratch);
    if (eff_scale != 1.0)
      for (std::size_t k = 0; k < n; ++k) base[k] *= eff_scale;
    return;
  }
  scratch.gather.resize(n);
  cd* g = scratch.gather.data();
  for (std::size_t k = 0; k < n; ++k) g[k] = base[k * stride];
  exec(g, invert, scratch);
  if (eff_scale != 1.0)
    for (std::size_t k = 0; k < n; ++k) base[k * stride] = g[k] * eff_scale;
  else
    for (std::size_t k = 0; k < n; ++k) base[k * stride] = g[k];
}

}  // namespace rem::dsp
