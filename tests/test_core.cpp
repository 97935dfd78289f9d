#include "core/legacy_manager.hpp"
#include "core/load_tie_break.hpp"
#include "core/overlay.hpp"
#include "core/rem_manager.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rc = rem::core;
namespace rs = rem::sim;
namespace rm = rem::mobility;

namespace {

rs::ServingState serving_at(double rsrp) {
  rs::ServingState s;
  s.cell_idx = 0;
  s.id = {0, 0, 10};
  s.rsrp_dbm = rsrp;
  s.dd_snr_db = rsrp + 101.0;
  s.snr_db = rsrp + 101.0;
  return s;
}

rs::Observation neighbor(std::size_t idx, int cell, int site, int channel,
                         double rsrp) {
  rs::Observation o;
  o.cell_idx = idx;
  o.id = {cell, site, channel};
  o.rsrp_dbm = rsrp;
  o.dd_snr_db = rsrp + 101.0;
  return o;
}

rm::CellPolicy simple_a3_policy(double offset, double ttt) {
  rm::CellPolicy p;
  rm::PolicyRule r;
  r.channel = rm::PolicyRule::kServingChannel;
  r.event = {rm::EventType::kA3, 0, 0, offset, 0, ttt};
  p.rules.push_back(r);
  return p;
}

}  // namespace

TEST(LegacyManager, TriggersA3AfterTtt) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.04);
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 10, -90.0)};
  EXPECT_FALSE(mgr.update(0.00, sv, obs).has_value());  // TTT running
  EXPECT_FALSE(mgr.update(0.02, sv, obs).has_value());
  const auto d = mgr.update(0.05, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 1u);
  EXPECT_GT(d->feedback_delay_s, 0.0);
}

TEST(LegacyManager, IgnoresInterFrequencyInStageZero) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.0);
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  // Strong neighbor on another channel: invisible to the intra-only rule.
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 20, -80.0)};
  EXPECT_FALSE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_TRUE(mgr.visible_cells().empty());
}

TEST(LegacyManager, MultiStageReconfiguresAfterA2WithDelay) {
  rc::LegacyConfig cfg;
  rm::CellPolicy p;
  rm::PolicyRule guard;
  guard.event = {rm::EventType::kA2, -105, 0, 0, 0, 0};
  guard.action = rm::PolicyAction::kReconfigure;
  guard.next_stage = 1;
  p.rules.push_back(guard);
  rm::PolicyRule inter;
  inter.stage = 1;
  inter.channel = 20;
  inter.event = {rm::EventType::kA4, -108, 0, 0, 0, 0};
  p.rules.push_back(inter);
  cfg.default_policy = p;
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-110.0);  // A2 satisfied
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 20, -95.0)};
  EXPECT_FALSE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_EQ(mgr.current_stage(), 0);  // reconfiguration in flight
  // After the round trip the stage switches and A4 can fire.
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.01; t < 0.5 && !d; t += 0.01) d = mgr.update(t, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(mgr.current_stage(), 1);
  EXPECT_EQ(mgr.reconfigurations(), 1);
  EXPECT_EQ(d->target_idx, 1u);
}

TEST(LegacyManager, RefireIntervalSuppressesDuplicates) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.0);
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 10, -90.0)};
  ASSERT_TRUE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_FALSE(mgr.update(0.05, sv, obs).has_value());
  EXPECT_TRUE(mgr.update(0.30, sv, obs).has_value());  // re-fire allowed
}

TEST(RemManager, SeesAllChannelsImmediately) {
  rc::RemManager mgr(rc::RemConfig{}, rem::common::Rng(1));
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {
      neighbor(1, 1, 1, 20, -90.0),   // inter-frequency
      neighbor(2, 2, 1, 10, -95.0)};  // co-sited intra
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.0; t < 0.2 && !d; t += 0.01) d = mgr.update(t, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 1u);  // best candidate, despite the channel
  EXPECT_EQ(mgr.visible_cells().size(), 2u);
}

TEST(RemManager, RejectsNegativeCellAndSiteIds) {
  // Per-cell and per-site state lives in tables indexed by id.
  rc::RemManager mgr(rc::RemConfig{}, rem::common::Rng(1));
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> bad_cell = {neighbor(1, -1, 1, 10, -90)};
  const std::vector<rs::Observation> bad_site = {neighbor(1, 1, -1, 10, -90)};
  EXPECT_THROW(mgr.update(0.0, sv, bad_cell), std::invalid_argument);
  EXPECT_THROW(mgr.update(0.0, sv, bad_site), std::invalid_argument);
}

TEST(RemManager, RespectsA3OffsetAndTtt) {
  rc::RemConfig rcfg;
  rcfg.a3_offset_db = 3.0;
  rc::RemManager mgr(rcfg, rem::common::Rng(2));
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  // Only 2 dB better: below offset+hysteresis, never triggers.
  const std::vector<rs::Observation> weak = {neighbor(1, 1, 1, 10, -98.0)};
  for (double t = 0.0; t < 0.3; t += 0.01)
    EXPECT_FALSE(mgr.update(t, sv, weak).has_value());
  // 6 dB better: triggers after TTT.
  const std::vector<rs::Observation> strong = {neighbor(1, 1, 1, 10, -94.0)};
  EXPECT_FALSE(mgr.update(0.31, sv, strong).has_value());
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.32; t < 0.5 && !d; t += 0.01)
    d = mgr.update(t, sv, strong);
  EXPECT_TRUE(d.has_value());
}

TEST(RemManager, FeedbackDelayBelowLegacy) {
  rc::RemManager rem_mgr(rc::RemConfig{}, rem::common::Rng(3));
  rc::LegacyConfig lcfg;
  // Like-for-like: the legacy policy must also monitor the channel-20
  // cells (A4), paying the measurement-gap + long-TTT cost REM avoids.
  lcfg.default_policy = simple_a3_policy(3.0, 0.04);
  rm::PolicyRule inter;
  inter.channel = 20;
  inter.event = {rm::EventType::kA4, -105, 0, 0, 0, 0.640};
  lcfg.default_policy.rules.push_back(inter);
  rc::LegacyManager legacy_mgr(lcfg);
  rem_mgr.on_serving_changed(0.0, 0);
  legacy_mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-100.0);
  std::vector<rs::Observation> obs;
  for (int site = 1; site <= 3; ++site) {
    obs.push_back(neighbor(static_cast<std::size_t>(site * 2), site * 2,
                           site, 10, -92.0));
    obs.push_back(neighbor(static_cast<std::size_t>(site * 2 + 1),
                           site * 2 + 1, site, 20, -94.0));
  }
  std::optional<rs::HandoverDecision> dr, dl;
  for (double t = 0.0; t < 0.5 && (!dr || !dl); t += 0.01) {
    if (!dr) dr = rem_mgr.update(t, sv, obs);
    if (!dl) dl = legacy_mgr.update(t, sv, obs);
  }
  ASSERT_TRUE(dr.has_value());
  ASSERT_TRUE(dl.has_value());
  EXPECT_LT(dr->feedback_delay_s, dl->feedback_delay_s);
}

// ---------- Load-aware tie-break ----------

namespace {

// Target cell 3 (metric 10 dB), fallback cell 5, band 1.5 dB unless given.
rs::HandoverDecision tie_break(const std::vector<rc::LoadCandidate>& cands,
                               double band_db = 1.5, int fallback = 5) {
  rs::HandoverDecision d;
  d.target_idx = 3;
  d.fallback_idx = fallback;
  rc::load_aware_tie_break(cands, 10.0, band_db, d);
  return d;
}

}  // namespace

TEST(LoadTieBreak, UnknownLoadsAloneNeverMoveTheChoice) {
  // Nobody advertises: the chosen target stays, even against a stronger
  // in-band rival (the legacy manager chooses the first rule that fired).
  const auto d = tie_break({{10.0, 3, -1.0}, {10.4, 2, -1.0}, {9.0, 7, -1.0}});
  EXPECT_EQ(d.target_idx, 3u);
  EXPECT_EQ(d.fallback_idx, 5);
  // An unknown load reads as 0.5: it loses to a lighter known load on the
  // target and beats a heavier one.
  EXPECT_EQ(tie_break({{10.0, 3, 0.4}, {9.5, 7, -1.0}}).target_idx, 3u);
  EXPECT_EQ(tie_break({{10.0, 3, 0.6}, {9.5, 7, -1.0}}).target_idx, 7u);
}

TEST(LoadTieBreak, KnownLoadMovesTheChoiceOnlyInsideTheBand) {
  EXPECT_EQ(tie_break({{10.0, 3, -1.0}, {9.0, 7, 0.1}}).target_idx, 7u);
  EXPECT_EQ(tie_break({{10.0, 3, -1.0}, {8.4, 7, 0.1}}).target_idx, 3u);
  EXPECT_EQ(tie_break({{10.0, 3, -1.0}, {8.5, 7, 0.1}}).target_idx, 7u);
  // A zero band disables the tie-break, even for an equally strong rival.
  EXPECT_EQ(tie_break({{10.0, 3, -1.0}, {10.0, 2, 0.1}}, 0.0).target_idx, 3u);
}

TEST(LoadTieBreak, EqualLoadsBreakByMetricThenCellIndex) {
  EXPECT_EQ(tie_break({{9.5, 7, 0.3}, {10.0, 3, 0.3}}).target_idx, 3u);
  EXPECT_EQ(tie_break({{10.0, 3, 0.3}, {10.0, 2, 0.3}}).target_idx, 2u);
  EXPECT_EQ(tie_break({{10.0, 8, 0.3}, {10.0, 3, 0.3}}).target_idx, 3u);
}

TEST(LoadTieBreak, DisplacedWinnerBecomesTheFallback) {
  // The fallback was the new target: the displaced winner takes its place.
  auto d = tie_break({{10.0, 3, 0.9}, {9.5, 5, 0.1}});
  EXPECT_EQ(d.target_idx, 5u);
  EXPECT_EQ(d.fallback_idx, 3);
  // Any other fallback is kept as it was.
  d = tie_break({{10.0, 3, 0.9}, {9.5, 5, 0.5}, {9.2, 7, 0.1}});
  EXPECT_EQ(d.target_idx, 7u);
  EXPECT_EQ(d.fallback_idx, 5);
  d = tie_break({{10.0, 3, 0.9}, {9.2, 7, 0.1}}, 1.5, -1);
  EXPECT_EQ(d.target_idx, 7u);
  EXPECT_EQ(d.fallback_idx, -1);
}

// ---------- Signaling overlay ----------

TEST(Overlay, DeliversAtGoodSnr) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_signaling(1, 20);
  ov.enqueue_data(100, 50);
  rem::common::Rng rng(4);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 25.0, rng);
  ASSERT_TRUE(out.allocation.signaling.has_value());
  EXPECT_EQ(out.delivered_signaling_ids, std::vector<std::uint64_t>{1});
  EXPECT_TRUE(out.lost_signaling_ids.empty());
  EXPECT_GT(out.data_res, 0u);
}

TEST(Overlay, LosesAtTerribleSnr) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_signaling(1, 20);
  rem::common::Rng rng(5);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, -20.0, rng);
  EXPECT_EQ(out.lost_signaling_ids, std::vector<std::uint64_t>{1});
}

TEST(Overlay, NoSignalingMeansFullDataGrid) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_data(100, 10);
  rem::common::Rng rng(6);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 20.0, rng);
  EXPECT_FALSE(out.allocation.signaling.has_value());
  EXPECT_EQ(out.data_res, ov.config().num.total_res());
}

TEST(Overlay, BacklogCarriesAcrossSubframes) {
  rc::OverlayConfig cfg;
  cfg.num = rem::phy::Numerology::lte(12, 14);  // small grid
  rc::SignalingOverlay ov(cfg);
  for (std::uint64_t i = 0; i < 4; ++i) ov.enqueue_signaling(i, 10);
  rem::common::Rng rng(7);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  std::size_t delivered = 0;
  for (int sub = 0; sub < 6 && delivered < 4; ++sub)
    delivered += ov.transmit_subframe(ch, 25.0, rng)
                     .delivered_signaling_ids.size();
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(ov.signaling_backlog_bytes(), 0u);
}

TEST(Overlay, LegacyModeUsesOfdm) {
  rc::OverlayConfig cfg;
  cfg.legacy_ofdm = true;
  rc::SignalingOverlay ov(cfg);
  ov.enqueue_signaling(1, 20);
  rem::common::Rng rng(8);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 25.0, rng);
  EXPECT_EQ(out.delivered_signaling_ids.size(), 1u);  // clean channel: fine
}
