// Randomized property tests over module invariants.
//
// The seeded suites read REM_TEST_SEEDS (a count like "32", or an explicit
// comma list like "7,8,9") to widen or pin the sweep; unset keeps the
// committed defaults.
#include "common/rng.hpp"
#include "mobility/conflict.hpp"
#include "mobility/simplify.hpp"
#include "phy/coding.hpp"
#include "phy/scheduler.hpp"
#include "sim/tcp.hpp"
#include "testkit/seeds.hpp"

#include <gtest/gtest.h>

namespace rm = rem::mobility;
namespace rp = rem::phy;

// ---------- Theorem 2 vs the exact conflict analyzer ----------

class TheoremVsAnalyzer : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TheoremVsAnalyzer, PairwiseConflictIffSumNegative) {
  // Property (2-cell case of Theorem 2): for pure-A3 policies on the same
  // channel, the exact region analyzer finds a conflict exactly when
  // Delta(i->j) + Delta(j->i) < 0.
  rem::common::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const double d1 = rng.uniform(-6.0, 6.0);
    const double d2 = rng.uniform(-6.0, 6.0);
    std::vector<rm::PolicyCell> cells(2);
    for (int i = 0; i < 2; ++i) {
      cells[i].id = {i, i, 100};
      rm::PolicyRule r;
      r.event = {rm::EventType::kA3, 0, 0, i == 0 ? d1 : d2, 0, 0};
      cells[i].policy.rules.push_back(r);
    }
    const bool conflict = !rm::find_two_cell_conflicts(cells).empty();
    EXPECT_EQ(conflict, d1 + d2 < 0) << "d1=" << d1 << " d2=" << d2;
  }
}

TEST_P(TheoremVsAnalyzer, RepairAlwaysConverges) {
  rem::common::Rng rng(GetParam() + 100);
  const int n = 2 + static_cast<int>(GetParam() % 5);
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) d[i][j] = rng.uniform(-8.0, 8.0);
  const auto repaired = rm::repair_theorem2(d);
  EXPECT_TRUE(rm::check_theorem2(repaired).empty());
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_GE(repaired[i][j], d[i][j] - 1e-12);  // never lowered
}

TEST_P(TheoremVsAnalyzer, WitnessPointsActuallySatisfyBothTriggers) {
  rem::common::Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<rm::PolicyCell> cells(2);
    for (int i = 0; i < 2; ++i) {
      cells[i].id = {i, i, i * 10};
      rm::PolicyRule r;
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      if (kind == 0)
        r.event = {rm::EventType::kA3, 0, 0, rng.uniform(-5, 2), 0, 0};
      else if (kind == 1)
        r.event = {rm::EventType::kA4, rng.uniform(-115, -95), 0, 0, 0, 0};
      else
        r.event = {rm::EventType::kA5, rng.uniform(-100, -90),
                   rng.uniform(-110, -100), 0, 0, 0};
      cells[i].policy.rules.push_back(r);
    }
    for (const auto& c : rm::find_two_cell_conflicts(cells)) {
      // The witness must satisfy both directed triggers.
      EXPECT_TRUE(rm::event_condition(cells[0].policy.rules[0].event,
                                      c.witness_ri, c.witness_rj));
      EXPECT_TRUE(rm::event_condition(cells[1].policy.rules[0].event,
                                      c.witness_rj, c.witness_ri));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TheoremVsAnalyzer,
    ::testing::ValuesIn(rem::testkit::property_seeds({1, 2, 3, 4, 5})));

// ---------- Simplification invariants ----------

class SimplifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplifyProperty, OutputIsAlwaysSingleStageA3Only) {
  rem::common::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    rm::CellPolicy p;
    const int rules = 1 + static_cast<int>(rng.uniform_int(0, 5));
    for (int r = 0; r < rules; ++r) {
      rm::PolicyRule rule;
      rule.stage = static_cast<int>(rng.uniform_int(0, 2));
      const int kind = static_cast<int>(rng.uniform_int(0, 4));
      rule.event.type = static_cast<rm::EventType>(kind);
      rule.event.threshold1 = rng.uniform(-120, -80);
      rule.event.threshold2 = rng.uniform(-120, -80);
      rule.event.offset = rng.uniform(-5, 5);
      if (rule.event.type == rm::EventType::kA2 && rng.bernoulli(0.5)) {
        rule.action = rm::PolicyAction::kReconfigure;
        rule.next_stage = rule.stage + 1;
      }
      p.rules.push_back(rule);
    }
    const auto s = rm::simplify_policy(p);
    EXPECT_FALSE(s.is_multi_stage());
    for (const auto& r : s.rules) {
      EXPECT_EQ(r.event.type, rm::EventType::kA3);
      EXPECT_EQ(r.stage, 0);
      EXPECT_EQ(r.action, rm::PolicyAction::kHandover);
    }
  }
}

TEST_P(SimplifyProperty, CoordinationIsIdempotent) {
  rem::common::Rng rng(GetParam() + 10);
  std::vector<rm::PolicyCell> cells(4);
  for (int i = 0; i < 4; ++i) {
    cells[i].id = {i, i, 10 * (i % 2)};
    rm::PolicyRule r;
    r.event = {rm::EventType::kA3, 0, 0, rng.uniform(-4, 4), 0, 0};
    cells[i].policy.rules.push_back(r);
  }
  rm::coordinate_offsets(cells);
  auto snapshot = cells;
  rm::coordinate_offsets(cells);
  for (int i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(cells[i].policy.rules[0].event.offset,
                     snapshot[i].policy.rules[0].event.offset);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimplifyProperty,
    ::testing::ValuesIn(rem::testkit::property_seeds({11, 12, 13})));

// ---------- Scheduler invariants ----------

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, AllocationsNeverOverlapAndConserveGrid) {
  rem::common::Rng rng(GetParam());
  rp::SignalingScheduler sched(rp::Numerology::lte(48, 14),
                               rp::Modulation::kQPSK);
  std::uint64_t id = 0;
  for (int subframe = 0; subframe < 60; ++subframe) {
    const int arrivals = static_cast<int>(rng.uniform_int(0, 4));
    for (int a = 0; a < arrivals; ++a) {
      sched.enqueue({id++, static_cast<std::size_t>(rng.uniform_int(1, 60)),
                     rng.bernoulli(0.5)});
    }
    const auto alloc = sched.schedule_subframe();
    std::size_t covered = 0;
    if (alloc.signaling) {
      covered += alloc.signaling->res();
      for (const auto& d : alloc.data)
        EXPECT_FALSE(d.overlaps(*alloc.signaling));
    }
    for (const auto& d : alloc.data) covered += d.res();
    EXPECT_LE(covered, 48u * 14u);
    if (alloc.signaling) {
      // Contiguity: full-width rectangle starting at symbol 0.
      EXPECT_EQ(alloc.signaling->first_subcarrier, 0u);
      EXPECT_EQ(alloc.signaling->num_subcarriers, 48u);
      EXPECT_EQ(alloc.signaling->first_symbol, 0u);
      // Waste bounded by one symbol column.
      EXPECT_LT(alloc.unused_res, 48u);
    }
  }
}

TEST_P(SchedulerProperty, SignalingNeverStarves) {
  // Any signaling message that fits a grid is served within a bounded
  // number of subframes regardless of data pressure.
  rem::common::Rng rng(GetParam() + 50);
  rp::SignalingScheduler sched(rp::Numerology::lte(48, 14),
                               rp::Modulation::kQPSK);
  for (int i = 0; i < 200; ++i) sched.enqueue({1000u + i, 100, false});
  sched.enqueue({1, 40, true});
  bool served = false;
  for (int subframe = 0; subframe < 3 && !served; ++subframe) {
    const auto alloc = sched.schedule_subframe();
    for (const auto sid : alloc.served_signaling_ids)
      if (sid == 1) served = true;
  }
  EXPECT_TRUE(served);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SchedulerProperty,
    ::testing::ValuesIn(rem::testkit::property_seeds({21, 22, 23})));

// ---------- Viterbi monotonicity ----------

class CodingProperty : public ::testing::TestWithParam<double> {};

TEST_P(CodingProperty, BerImprovesWithSnr) {
  // Property: over a BPSK/AWGN channel, coded BER at sigma is no worse
  // than at sigma * 1.5 (statistically, over many blocks).
  const double sigma = GetParam();
  rem::common::Rng rng(static_cast<std::uint64_t>(sigma * 1000));
  const auto run = [&](double s) {
    int errors = 0;
    for (int block = 0; block < 30; ++block) {
      std::vector<std::uint8_t> bits(150);
      for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
      const auto coded = rp::ConvolutionalCode::encode(bits);
      std::vector<double> llrs(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        const double tx = coded[i] ? -1.0 : 1.0;
        llrs[i] = 2.0 * (tx + rng.gaussian(0, s)) / (s * s);
      }
      const auto dec = rp::ConvolutionalCode::decode(llrs);
      for (std::size_t i = 0; i < bits.size(); ++i)
        errors += dec[i] != bits[i];
    }
    return errors;
  };
  EXPECT_LE(run(sigma), run(sigma * 1.5) + 5);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, CodingProperty,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0));

// ---------- TCP stall bounds ----------

class TcpProperty : public ::testing::TestWithParam<double> {};

TEST_P(TcpProperty, StallBoundedByOutagePlusMaxRto) {
  const double outage = GetParam();
  for (double phase = 0.0; phase < 1.0; phase += 0.1) {
    const double stall = rem::sim::tcp_stall_for_outage(outage, phase);
    EXPECT_GE(stall, outage);
    EXPECT_LE(stall, outage + rem::sim::kTcpMaxRto_s + rem::sim::kTcpRtt_s +
                         rem::sim::kTcpBaseRto_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Outages, TcpProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.3, 5.0, 12.0,
                                           30.0));
