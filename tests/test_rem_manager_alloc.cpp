// RemManager::update and LegacyManager::update allocate nothing in
// steady state. This binary replaces the global operator new with a
// counting one, which is why it is a binary of its own: no other test
// runs under the replacement.
#include "core/legacy_manager.hpp"
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

TEST(LegacyManagerAlloc, SteadyStateUpdateAllocatesNothing) {
  namespace rm = rem::mobility;
  // Two stages: an intra-frequency A3 handover rule and an A2 guard that
  // reconfigures into stage 1, where an inter-frequency A4 rule hands
  // over and an A1 guard reconfigures back.
  rem::core::LegacyConfig cfg;
  auto& rules = cfg.default_policy.rules;
  rules.resize(4);
  rules[0].event = {rm::EventType::kA3, 0, 0, 3.0, 0, 0.04};
  rules[0].channel = rm::PolicyRule::kServingChannel;
  rules[1].event = {rm::EventType::kA2, -100.0, 0, 0, 0, 0.04};
  rules[1].action = rm::PolicyAction::kReconfigure;
  rules[1].next_stage = 1;
  rules[2].stage = 1;
  rules[2].event = {rm::EventType::kA4, -95.0, 0, 0, 0, 0.04};
  rules[2].channel = rm::PolicyRule::kOtherChannels;
  rules[3].stage = 1;
  rules[3].event = {rm::EventType::kA1, -98.0, 0, 0, 0, 0.04};
  rules[3].action = rm::PolicyAction::kReconfigure;
  rules[3].next_stage = 0;
  rem::core::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  rs::ServingState sv;
  sv.id = {0, 0, 1825};
  // Twelve candidates, more than the eight monitored, on two channels.
  // The serving RSRP swings across both guards every 60 ticks, and cell
  // i sits 5 dB above or below the serving cell in runs of 2 + i ticks,
  // so stages switch, monitors enter and leave, and decisions fire.
  std::vector<rs::Observation> obs(12);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    obs[i].cell_idx = i + 1;
    obs[i].id = {static_cast<int>(i) + 1, 1 + static_cast<int>(i) / 2,
                 i % 2 == 0 ? 1825 : 2452};
  }
  int decisions = 0;
  const auto update = [&](int k) {
    sv.rsrp_dbm = (k / 60) % 2 == 0 ? -104.0 : -90.0;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const bool above = (k / (2 + static_cast<int>(i))) % 2 == 0;
      obs[i].rsrp_dbm =
          sv.rsrp_dbm + (above ? 5.0 : -5.0) + 0.1 * static_cast<double>(i);
    }
    decisions += mgr.update(0.01 * k, sv, obs).has_value();
  };
  int k = 0;
  for (; k < 240; ++k) update(k);  // warm-up: both stages, every monitor
  const int reconfigurations = mgr.reconfigurations();
  decisions = 0;
  const long before = g_allocations.load();
  for (const int end = k + 1000; k < end; ++k) update(k);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_GT(decisions, 0);
  EXPECT_GT(mgr.reconfigurations(), reconfigurations);
}
