#include "mobility/conflict.hpp"
#include "mobility/events.hpp"
#include "mobility/measurement.hpp"
#include "mobility/policy.hpp"
#include "mobility/simplify.hpp"

#include <gtest/gtest.h>

namespace rm = rem::mobility;

// ---------- Events ----------

TEST(Events, Conditions) {
  rm::EventConfig a1{rm::EventType::kA1, -100, 0, 0, 0, 0};
  EXPECT_TRUE(rm::event_condition(a1, -90, 0));
  EXPECT_FALSE(rm::event_condition(a1, -110, 0));

  rm::EventConfig a2{rm::EventType::kA2, -100, 0, 0, 0, 0};
  EXPECT_TRUE(rm::event_condition(a2, -110, 0));
  EXPECT_FALSE(rm::event_condition(a2, -90, 0));

  rm::EventConfig a3{rm::EventType::kA3, 0, 0, 3.0, 0, 0};
  EXPECT_TRUE(rm::event_condition(a3, -100, -95));
  EXPECT_FALSE(rm::event_condition(a3, -100, -98));

  rm::EventConfig a4{rm::EventType::kA4, -103, 0, 0, 0, 0};
  EXPECT_TRUE(rm::event_condition(a4, -120, -100));
  EXPECT_FALSE(rm::event_condition(a4, -120, -105));

  rm::EventConfig a5{rm::EventType::kA5, -110, -108, 0, 0, 0};
  EXPECT_TRUE(rm::event_condition(a5, -115, -105));
  EXPECT_FALSE(rm::event_condition(a5, -105, -105));
  EXPECT_FALSE(rm::event_condition(a5, -115, -109));
}

TEST(Events, HysteresisShiftsThreshold) {
  rm::EventConfig a3{rm::EventType::kA3, 0, 0, 3.0, 1.0, 0};
  EXPECT_FALSE(rm::event_condition(a3, -100, -96.5));  // needs > -96
  EXPECT_TRUE(rm::event_condition(a3, -100, -95.5));
}

TEST(Events, TimeToTriggerGatesReport) {
  rm::EventConfig a3{rm::EventType::kA3, 0, 0, 3.0, 0, 0.160};
  rm::EventMonitor mon(a3);
  EXPECT_FALSE(mon.update(0.00, -100, -95));
  EXPECT_FALSE(mon.update(0.10, -100, -95));
  EXPECT_TRUE(mon.update(0.16, -100, -95));   // held long enough
  EXPECT_FALSE(mon.update(0.20, -100, -95));  // fires once
}

TEST(Events, ConditionLapseRearmsTrigger) {
  rm::EventConfig a3{rm::EventType::kA3, 0, 0, 3.0, 0, 0.1};
  rm::EventMonitor mon(a3);
  EXPECT_FALSE(mon.update(0.00, -100, -95));
  EXPECT_FALSE(mon.update(0.05, -100, -100));  // condition lapses
  EXPECT_FALSE(mon.update(0.06, -100, -95));   // re-enter, timer restarts
  EXPECT_FALSE(mon.update(0.10, -100, -95));
  EXPECT_TRUE(mon.update(0.16, -100, -95));
}

TEST(Events, ZeroTttFiresImmediately) {
  rm::EventConfig a3{rm::EventType::kA3, 0, 0, 3.0, 0, 0};
  rm::EventMonitor mon(a3);
  EXPECT_TRUE(mon.update(0.0, -100, -95));
}

// ---------- Policy ----------

namespace {
rm::CellPolicy legacy_multistage() {
  // Fig. 1b shape: stage 0 = intra A3 + A2 guard; stage 1 = inter A4/A5.
  rm::CellPolicy p;
  rm::PolicyRule intra;
  intra.stage = 0;
  intra.channel = rm::PolicyRule::kServingChannel;
  intra.event = {rm::EventType::kA3, 0, 0, 3.0, 0, 0.040};
  p.rules.push_back(intra);

  rm::PolicyRule guard;
  guard.stage = 0;
  guard.event = {rm::EventType::kA2, -110, 0, 0, 0, 0.040};
  guard.action = rm::PolicyAction::kReconfigure;
  guard.next_stage = 1;
  p.rules.push_back(guard);

  rm::PolicyRule inter;
  inter.stage = 1;
  inter.channel = 2452;
  inter.event = {rm::EventType::kA4, -108, 0, 0, 0, 0.640};
  p.rules.push_back(inter);

  rm::PolicyRule inter2;
  inter2.stage = 1;
  inter2.channel = 100;
  inter2.event = {rm::EventType::kA5, -110, -103, 0, 0, 0.640};
  p.rules.push_back(inter2);
  return p;
}
}  // namespace

TEST(Policy, StageIntrospection) {
  const auto p = legacy_multistage();
  EXPECT_EQ(p.num_stages(), 2);
  EXPECT_TRUE(p.is_multi_stage());
  EXPECT_EQ(std::ranges::distance(p.rules_in_stage(0)), 2);
  EXPECT_EQ(std::ranges::distance(p.rules_in_stage(1)), 2);
}

TEST(Policy, A3OffsetLookup) {
  const auto p = legacy_multistage();
  const auto off = p.a3_offset_for(1825, 1825);  // serving channel
  ASSERT_TRUE(off.has_value());
  EXPECT_DOUBLE_EQ(*off, 3.0);
  EXPECT_FALSE(p.a3_offset_for(2452, 1825).has_value());  // A4, not A3
}

// ---------- Simplification (Fig. 8) ----------

TEST(Simplify, CollapsesToSingleStageA3) {
  rm::SimplifyStats stats;
  const auto simplified = rm::simplify_policy(legacy_multistage(), 1.0,
                                              &stats);
  EXPECT_FALSE(simplified.is_multi_stage());
  EXPECT_EQ(simplified.num_stages(), 1);
  for (const auto& r : simplified.rules) {
    EXPECT_EQ(r.event.type, rm::EventType::kA3);
    EXPECT_EQ(r.action, rm::PolicyAction::kHandover);
    EXPECT_EQ(r.channel, rm::PolicyRule::kAnyChannel);
  }
  EXPECT_EQ(stats.kept_a3, 1);
  EXPECT_EQ(stats.a4_to_a3, 1);
  EXPECT_EQ(stats.a5_to_a3, 1);
  EXPECT_GE(stats.removed_a1_a2, 1);
  EXPECT_EQ(stats.removed_stages, 1);
}

TEST(Simplify, A5OffsetIsThresholdDifference) {
  rm::CellPolicy p;
  rm::PolicyRule r;
  r.event = {rm::EventType::kA5, -110, -104, 0, 0, 0};
  p.rules.push_back(r);
  const auto s = rm::simplify_policy(p);
  ASSERT_EQ(s.rules.size(), 1u);
  EXPECT_DOUBLE_EQ(s.rules[0].event.offset, 6.0);  // -104 - (-110)
}

TEST(Simplify, PreservesTttAndHysteresis) {
  rm::CellPolicy p;
  rm::PolicyRule r;
  r.event = {rm::EventType::kA3, 0, 0, 2.0, 1.5, 0.08};
  p.rules.push_back(r);
  const auto s = rm::simplify_policy(p);
  ASSERT_EQ(s.rules.size(), 1u);
  EXPECT_DOUBLE_EQ(s.rules[0].event.hysteresis, 1.5);
  EXPECT_DOUBLE_EQ(s.rules[0].event.time_to_trigger_s, 0.08);
}

// ---------- Conflicts ----------

namespace {
rm::PolicyCell a3_cell(int id, int channel, double offset) {
  rm::PolicyCell c;
  c.id = {id, id, channel};
  rm::PolicyRule r;
  r.event = {rm::EventType::kA3, 0, 0, offset, 0, 0};
  c.policy.rules.push_back(r);
  return c;
}
}  // namespace

TEST(Conflict, ProactiveA3PairConflicts) {
  // Fig. 4: both cells use Delta_A3 < 0 -> persistent loop region exists.
  std::vector<rm::PolicyCell> cells = {a3_cell(3, 10, -3.0),
                                       a3_cell(4, 10, -1.0)};
  const auto conflicts = rm::find_two_cell_conflicts(cells);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(rm::conflict_type_label(conflicts[0].event_i,
                                    conflicts[0].event_j),
            "A3-A3");
  EXPECT_FALSE(conflicts[0].inter_frequency);
  // Witness must satisfy both triggers.
  const double r3 = conflicts[0].witness_ri;
  const double r4 = conflicts[0].witness_rj;
  EXPECT_GT(r4, r3 - 3.0);
  EXPECT_GT(r3, r4 - 1.0);
}

TEST(Conflict, NonNegativeOffsetsAreCompatible) {
  std::vector<rm::PolicyCell> cells = {a3_cell(1, 10, 3.0),
                                       a3_cell(2, 10, -2.0)};
  EXPECT_TRUE(rm::find_two_cell_conflicts(cells).empty());  // 3 - 2 >= 0
  cells[0] = a3_cell(1, 10, 2.0);
  EXPECT_TRUE(rm::find_two_cell_conflicts(cells).empty());  // boundary: sum 0
  cells[0] = a3_cell(1, 10, 1.5);
  EXPECT_FALSE(rm::find_two_cell_conflicts(cells).empty());  // sum -0.5 < 0
}

TEST(Conflict, LoadBalancingA4A5Conflict) {
  // Fig. 3: cell1 -> cell2 when RSRP2 > -110 (A4); cell2 -> cell1 when
  // RSRP2 < -95 and RSRP1 > -100 (A5). Overlap exists.
  rm::PolicyCell c1;
  c1.id = {1, 1, 10};
  rm::PolicyRule r1;
  r1.event = {rm::EventType::kA4, -110, 0, 0, 0, 0};
  r1.channel = 20;
  c1.policy.rules.push_back(r1);

  rm::PolicyCell c2;
  c2.id = {2, 2, 20};
  rm::PolicyRule r2;
  r2.event = {rm::EventType::kA5, -95, -100, 0, 0, 0};
  r2.channel = 10;
  c2.policy.rules.push_back(r2);

  const auto conflicts = rm::find_two_cell_conflicts({c1, c2});
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(rm::conflict_type_label(conflicts[0].event_i,
                                    conflicts[0].event_j),
            "A4-A5");
  EXPECT_TRUE(conflicts[0].inter_frequency);
}

TEST(Conflict, DisjointA5RegionsDoNotConflict) {
  rm::PolicyCell c1;
  c1.id = {1, 1, 10};
  rm::PolicyRule r1;
  // c1 -> c2 only when c2 very strong.
  r1.event = {rm::EventType::kA4, -60, 0, 0, 0, 0};
  c1.policy.rules.push_back(r1);

  rm::PolicyCell c2;
  c2.id = {2, 2, 20};
  rm::PolicyRule r2;
  // c2 -> c1 only when c2 (serving) weak.
  r2.event = {rm::EventType::kA5, -120, -100, 0, 0, 0};
  c2.policy.rules.push_back(r2);

  EXPECT_TRUE(rm::find_two_cell_conflicts({c1, c2}).empty());
}

TEST(Conflict, HistogramLabels) {
  std::vector<rm::TwoCellConflict> cs(3);
  cs[0].event_i = rm::EventType::kA3;
  cs[0].event_j = rm::EventType::kA3;
  cs[1].event_i = rm::EventType::kA4;
  cs[1].event_j = rm::EventType::kA3;
  cs[2].event_i = rm::EventType::kA3;
  cs[2].event_j = rm::EventType::kA4;
  const auto h = rm::conflict_histogram(cs);
  EXPECT_EQ(h.at("A3-A3"), 1);
  EXPECT_EQ(h.at("A3-A4"), 2);
}

// ---------- Theorems 2 & 3 ----------

TEST(Theorem2, DetectsViolations) {
  // 2 cells with offsets summing negative.
  std::vector<std::vector<double>> d = {{0, -3}, {-1, 0}};
  const auto v = rm::check_theorem2(d);
  EXPECT_FALSE(v.empty());
}

TEST(Theorem2, SatisfiedMatrixPasses) {
  std::vector<std::vector<double>> d = {{0, 3, 2}, {1, 0, 0}, {2, 1, 0}};
  EXPECT_TRUE(rm::check_theorem2(d).empty());
}

TEST(Theorem2, TripleWithNegativePairCaught) {
  // d(0->1) = 2, d(1->2) = -3: sum -1 < 0 violates even though each pair
  // with its reverse is fine.
  std::vector<std::vector<double>> d = {{0, 2, 5}, {5, 0, -3}, {5, 4, 0}};
  const auto v = rm::check_theorem2(d);
  ASSERT_FALSE(v.empty());
  bool found = false;
  for (const auto& t : v)
    if (t.i == 0 && t.j == 1 && t.k == 2) found = true;
  EXPECT_TRUE(found);
}

TEST(Theorem2, RepairConverges) {
  std::vector<std::vector<double>> d = {{0, -5, -2}, {-4, 0, -1},
                                        {-3, -2, 0}};
  const auto r = rm::repair_theorem2(d);
  EXPECT_TRUE(rm::check_theorem2(r).empty());
  // Repair never lowers an offset.
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_GE(r[i][j], d[i][j]);
}

TEST(Theorem2, RepairPreservesCompatibleOffsets) {
  std::vector<std::vector<double>> d = {{0, 3}, {1, 0}};
  const auto r = rm::repair_theorem2(d);
  EXPECT_EQ(r, d);
}

TEST(Theorem2, CycleSatisfiability) {
  EXPECT_TRUE(rm::a3_cycle_satisfiable({-3, -1}));
  EXPECT_FALSE(rm::a3_cycle_satisfiable({3, -1}));
  EXPECT_FALSE(rm::a3_cycle_satisfiable({0, 0, 0}));
  EXPECT_TRUE(rm::a3_cycle_satisfiable({1, 1, -3}));
}

TEST(Theorem2, CoordinateOffsetsEliminatesConflicts) {
  std::vector<rm::PolicyCell> cells = {a3_cell(1, 10, -3.0),
                                       a3_cell(2, 10, -1.0),
                                       a3_cell(3, 20, -2.0)};
  for (auto& c : cells) c.policy = rm::simplify_policy(c.policy);
  rm::coordinate_offsets(cells);
  EXPECT_TRUE(rm::find_two_cell_conflicts(cells).empty());
}

// ---------- Measurement / feedback delay ----------

namespace {
std::vector<rm::MeasureTask> hsr_tasks() {
  // Two co-located cells per site across 3 sites, half inter-frequency.
  std::vector<rm::MeasureTask> tasks;
  for (int site = 0; site < 3; ++site) {
    tasks.push_back({{site * 2, site, 10}, true});
    tasks.push_back({{site * 2 + 1, site, 20}, false});
  }
  return tasks;
}
}  // namespace

TEST(Measurement, LegacySlowerThanRem) {
  rm::MeasurementConfig cfg;
  const auto tasks = hsr_tasks();
  const double legacy = rm::legacy_feedback_delay_s(tasks, cfg, 1);
  const double rem = rm::rem_feedback_delay_s(tasks, cfg);
  EXPECT_GT(legacy, rem * 2.0) << "legacy " << legacy << " rem " << rem;
}

TEST(Measurement, LegacyMatchesPaperScale) {
  // §3.1: ~800 ms average feedback generation on HSR.
  rm::MeasurementConfig cfg;
  const auto tasks = hsr_tasks();
  const double legacy = rm::legacy_feedback_delay_s(tasks, cfg, 1);
  EXPECT_GT(legacy, 0.5);
  EXPECT_LT(legacy, 1.5);
}

TEST(Measurement, RemMatchesPaperScale) {
  // Fig. 14a: ~242 ms average with cross-band estimation.
  rm::MeasurementConfig cfg;
  cfg.crossband_runtime_s = 0.050;
  const double rem = rm::rem_feedback_delay_s(hsr_tasks(), cfg);
  EXPECT_GT(rem, 0.1);
  EXPECT_LT(rem, 0.45);
}

TEST(Measurement, InterFrequencyDominatesLegacyDelay) {
  rm::MeasurementConfig cfg;
  std::vector<rm::MeasureTask> intra_only = {{{0, 0, 10}, true},
                                             {{1, 1, 10}, true}};
  std::vector<rm::MeasureTask> with_inter = intra_only;
  with_inter.push_back({{2, 2, 20}, false});
  EXPECT_GT(rm::legacy_feedback_delay_s(with_inter, cfg),
            rm::legacy_feedback_delay_s(intra_only, cfg) + 0.5);
}

TEST(Measurement, GapOverheadMatchesSchedule) {
  EXPECT_NEAR(rm::gap_spectrum_overhead(true), 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(rm::gap_spectrum_overhead(false), 0.0);
}

TEST(Measurement, NoTasksStillHasReportLatency) {
  rm::MeasurementConfig cfg;
  EXPECT_GE(rm::legacy_feedback_delay_s({}, cfg), rm::kReportLatency_s);
}

// ---------- n-cell loop enumeration ----------

TEST(A3Loops, FindsTwoCellLoop) {
  std::vector<rm::PolicyCell> cells = {a3_cell(0, 10, -3.0),
                                       a3_cell(1, 10, -1.0)};
  const auto loops = rm::find_a3_loops(cells, 4);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].cells, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(loops[0].offset_sum, -4.0);
}

TEST(A3Loops, FindsThreeCellLoopWithoutTwoCellOnes) {
  // Pairwise sums are fine (1 + 1 >= 0) but the triangle sums negative:
  // offsets 1, 1, -3 around the cycle.
  std::vector<rm::PolicyCell> cells = {a3_cell(0, 10, 1.0),
                                       a3_cell(1, 10, 1.0),
                                       a3_cell(2, 10, -3.0)};
  const auto loops = rm::find_a3_loops(cells, 4);
  // No 2-cell loop: all pairwise sums >= -2... check: (1,1)=2, (1,-3)=-2!
  // Cells 1-2 and 0-2 pairs each sum to -2 < 0, so 2-cell loops exist
  // alongside the 3-cell one. Verify all reported loops really sum < 0
  // and at least one 3-cell loop is present.
  bool has_triangle = false;
  for (const auto& l : loops) {
    EXPECT_LT(l.offset_sum, 0.0);
    if (l.cells.size() == 3) has_triangle = true;
  }
  EXPECT_TRUE(has_triangle);
}

TEST(A3Loops, NoLoopsWhenTheorem2Holds) {
  std::vector<rm::PolicyCell> cells = {a3_cell(0, 10, 2.0),
                                       a3_cell(1, 10, 0.0),
                                       a3_cell(2, 10, 1.0),
                                       a3_cell(3, 10, 3.0)};
  EXPECT_TRUE(rm::find_a3_loops(cells, 4).empty());
}

TEST(A3Loops, RespectsPairFilter) {
  std::vector<rm::PolicyCell> cells = {a3_cell(0, 10, -3.0),
                                       a3_cell(1, 10, -1.0)};
  const auto none = rm::find_a3_loops(
      cells, 4, [](std::size_t, std::size_t) { return false; });
  EXPECT_TRUE(none.empty());
}

TEST(A3Loops, CrossChannelEdgesNeedMatchingRules) {
  // A3 rules on the serving channel only: no edges across channels.
  std::vector<rm::PolicyCell> cells = {a3_cell(0, 10, -3.0),
                                       a3_cell(1, 20, -3.0)};
  for (auto& c : cells)
    c.policy.rules[0].channel = rm::PolicyRule::kServingChannel;
  EXPECT_TRUE(rm::find_a3_loops(cells, 4).empty());
}
