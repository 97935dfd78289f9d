// RemManager::update allocates nothing in steady state. This binary
// replaces the global operator new with a counting one, which is why it
// is a binary of its own: no other test runs under the replacement.
#include "core/rem_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rs = rem::sim;

TEST(RemManagerAlloc, SteadyStateUpdateAllocatesNothing) {
  rem::core::RemManager mgr(rem::core::RemConfig{}, rem::common::Rng(7));
  mgr.on_serving_changed(0.0, 0);
  rs::ServingState sv;
  sv.id = {0, 0, 1825};
  sv.dd_snr_db = sv.snr_db = 10.0;
  // Six candidates, two channels on each of three sites. The A3 threshold
  // is the serving 10 dB plus offset and hysteresis (13 dB). Cell i sits
  // 2 dB above it for 2 + i ticks, then 2 dB below for as long, so cells
  // keep entering and leaving TTT tracking, and the ones that stay above
  // for the 40 ms TTT make decisions.
  std::vector<rs::Observation> obs(6);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    obs[i].cell_idx = i + 1;
    obs[i].id = {static_cast<int>(i) + 1, 1 + static_cast<int>(i) / 2,
                 i % 2 == 0 ? 1825 : 2452};
  }
  int decisions = 0;
  const auto update = [&](int k) {
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const bool above = (k / (2 + static_cast<int>(i))) % 2 == 0;
      obs[i].dd_snr_db = obs[i].snr_db =
          (above ? 15.0 : 11.0) + 0.1 * static_cast<double>(i);
    }
    decisions += mgr.update(0.01 * k, sv, obs).has_value();
  };
  int k = 0;
  for (; k < 200; ++k) update(k);  // warm-up: every list reaches its size
  decisions = 0;
  const long before = g_allocations.load();
  for (const int end = k + 1000; k < end; ++k) update(k);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_GT(decisions, 0);
}
