#include "core/legacy_manager.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "crossband/movement.hpp"
#include "phy/channel_est.hpp"
#include "phy/bler_model.hpp"
#include "trace/eventlog.hpp"
#include "trace/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rt = rem::trace;
namespace rs = rem::sim;
namespace rm = rem::mobility;

// ---------- Scenario synthesis ----------

TEST(Scenario, SpacingTracksSpeedBucket) {
  const auto slow = rt::make_scenario(rt::Route::kLowMobilityLA, 60.0);
  const auto fast = rt::make_scenario(rt::Route::kBeijingShanghai, 330.0);
  // Faster buckets use shorter target intervals, but their absolute
  // spacing still reflects speed * interval.
  EXPECT_GT(fast.deployment.site_spacing_mean_m, 700.0);
  EXPECT_GT(slow.deployment.site_spacing_mean_m, 700.0);
  EXPECT_EQ(fast.sim.speed_kmh, 330.0);
}

TEST(Scenario, RouteLenCoversDuration) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingShanghai, 300.0,
                                    1000.0);
  EXPECT_GE(sc.deployment.route_len_m, 300.0 / 3.6 * 1000.0);
}

TEST(Scenario, PolicyMixDiffersByRoute) {
  const auto la = rt::make_scenario(rt::Route::kLowMobilityLA, 60.0);
  const auto bt = rt::make_scenario(rt::Route::kBeijingTaiyuan, 250.0);
  EXPECT_LT(la.policy_mix.proactive_a3_prob,
            bt.policy_mix.proactive_a3_prob);
  EXPECT_GT(la.policy_mix.intra_ttt_s, bt.policy_mix.intra_ttt_s);
}

TEST(Scenario, SynthesizedPoliciesAreMultiStage) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingShanghai, 300.0);
  rem::common::Rng rng(3);
  const auto cells = rs::make_rail_deployment(sc.deployment, rng);
  const auto policies = rt::synthesize_policies(cells, sc.policy_mix, rng);
  EXPECT_EQ(policies.size(), cells.size());
  int multi = 0, proactive = 0;
  for (const auto& [id, p] : policies) {
    if (p.is_multi_stage()) ++multi;
    for (const auto& r : p.rules)
      if (r.event.type == rm::EventType::kA3 && r.event.offset < 0)
        ++proactive;
  }
  EXPECT_EQ(multi, static_cast<int>(policies.size()));
  EXPECT_GT(proactive, 0);  // the §3.2 proactive mix
}

TEST(Scenario, ToPolicyCellsPreservesIds) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingTaiyuan, 250.0);
  rem::common::Rng rng(5);
  const auto cells = rs::make_rail_deployment(sc.deployment, rng);
  const auto policies = rt::synthesize_policies(cells, sc.policy_mix, rng);
  const auto pcs = rt::to_policy_cells(cells, policies);
  ASSERT_EQ(pcs.size(), cells.size());
  for (std::size_t i = 0; i < pcs.size(); ++i)
    EXPECT_EQ(pcs[i].id, cells[i].id);
}

// ---------- Event log ----------

namespace {
rs::EventLog sample_log() {
  return {
      {1.5, rs::EventKind::kMeasurementTriggered, 3, 4, 8.5},
      {1.9, rs::EventKind::kReportDelivered, 3, 4, 7.25},
      {2.0, rs::EventKind::kHoCommandDelivered, 3, 4, 6.0},
      {2.05, rs::EventKind::kHandoverComplete, 3, 4, 6.0},
      {9.1, rs::EventKind::kReportLost, 4, 5, -2.5},
      {9.9, rs::EventKind::kRadioLinkFailure, 4, -1, -8.0},
      {10.7, rs::EventKind::kReestablished, 5, -1, 0.0},
      {20.0, rs::EventKind::kHandoverComplete, 5, 6, 11.0},
  };
}
}  // namespace

TEST(EventLog, CsvRoundTrip) {
  const auto log = sample_log();
  std::stringstream ss;
  rt::write_event_csv(log, ss);
  const auto back = rt::read_event_csv(ss);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_NEAR(back[i].t_s, log[i].t_s, 1e-9);
    EXPECT_EQ(back[i].kind, log[i].kind);
    EXPECT_EQ(back[i].serving_cell, log[i].serving_cell);
    EXPECT_EQ(back[i].target_cell, log[i].target_cell);
    EXPECT_NEAR(back[i].serving_snr_db, log[i].serving_snr_db, 1e-9);
  }
}

TEST(EventLog, FileWriteThatFailsThrowsNamingThePath) {
  // /dev/full opens but fails every write; the failure shows only when
  // the buffered CSV is flushed, after write_event_csv has returned.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    rt::write_event_csv_file(sample_log(), "/dev/full");
    FAIL() << "writing to /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "write_event_csv_file: write failed for /dev/full");
  }
}

TEST(EventLog, CsvRoundTripCoversFaultAndRecoveryKinds) {
  const rs::EventLog log = {
      {5.0, rs::EventKind::kFaultStart, 2, 1, 4.0},
      {5.2, rs::EventKind::kReportRetransmit, 2, 3, -3.0},
      {5.5, rs::EventKind::kHoCommandDuplicate, 2, 1, -4.0},
      {6.0, rs::EventKind::kT304Expiry, 2, 3, -9.0},
      {6.4, rs::EventKind::kDegradedEnter, 2, -1, -5.0},
      {7.9, rs::EventKind::kDegradedExit, 2, -1, 2.0},
      {13.0, rs::EventKind::kFaultEnd, 2, 1, 0.0},
  };
  std::stringstream ss;
  rt::write_event_csv(log, ss);
  const auto back = rt::read_event_csv(ss);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(back[i].kind, log[i].kind);
    EXPECT_EQ(back[i].target_cell, log[i].target_cell);
  }
}

TEST(EventKindName, EveryKindRoundTripsThroughCsvAndInvalidThrows) {
  // Exhaustive over kNumEventKinds: the CSV parser derives its map from
  // event_kind_name, so every kind must come back as itself.
  rs::EventLog log;
  for (std::size_t i = 0; i < rs::kNumEventKinds; ++i) {
    const auto k = static_cast<rs::EventKind>(i);
    EXPECT_FALSE(rs::event_kind_name(k).empty());
    log.push_back({static_cast<double>(i), k, 0, -1, 0.0});
  }
  std::stringstream ss;
  rt::write_event_csv(log, ss);
  const auto back = rt::read_event_csv(ss);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(back[i].kind, log[i].kind) << rs::event_kind_name(log[i].kind);
  EXPECT_THROW(rs::event_kind_name(static_cast<rs::EventKind>(
                   rs::kNumEventKinds)),
               std::invalid_argument);
}

TEST(EventLog, RejectsMalformedInput) {
  std::stringstream no_header("1.0,handover_complete,1,2,3\n");
  EXPECT_THROW(rt::read_event_csv(no_header), std::runtime_error);
  std::stringstream bad_kind("t_s,kind,serving_cell,target_cell,"
                             "serving_snr_db\n1.0,warp_drive,1,2,3\n");
  EXPECT_THROW(rt::read_event_csv(bad_kind), std::runtime_error);
  std::stringstream bad_num("t_s,kind,serving_cell,target_cell,"
                            "serving_snr_db\nxyz,handover_complete,1,2,3\n");
  EXPECT_THROW(rt::read_event_csv(bad_num), std::runtime_error);
}

TEST(EventLog, RejectionNamesLineAndContext) {
  // A short row is a field-count error naming the line number, not a
  // misleading conversion failure.
  std::stringstream short_row("t_s,kind,serving_cell,target_cell,"
                              "serving_snr_db\n1.0,handover_complete,1,2,3\n"
                              "2.0,report_lost,4\n");
  try {
    rt::read_event_csv(short_row);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 5 fields, got 3"), std::string::npos)
        << msg;
  }
  // A bad numeric field names the field and quotes the offending text.
  std::stringstream bad_cell("t_s,kind,serving_cell,target_cell,"
                             "serving_snr_db\n1.0,report_lost,4x,2,3\n");
  try {
    rt::read_event_csv(bad_cell);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("serving_cell"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'4x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  // An unknown kind is quoted too.
  std::stringstream bad_kind("t_s,kind,serving_cell,target_cell,"
                             "serving_snr_db\n1.0,warp_drive,1,2,3\n");
  try {
    rt::read_event_csv(bad_kind);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'warp_drive'"),
              std::string::npos);
  }
}

TEST(EventLog, RejectsSpellingsOutsideTheNumberRule) {
  // std::stod/std::stoi accept all five; the flat-JSON number rule does
  // not, and a time must be finite.
  const std::pair<const char*, const char*> cases[] = {
      {"nan,report_lost,4,2,3", "bad t_s 'nan'"},
      {"inf,report_lost,4,2,3", "bad t_s 'inf'"},
      {"1.0,report_lost,4,2,0x10", "bad serving_snr_db '0x10'"},
      {" 1.5,report_lost,4,2,3", "bad t_s ' 1.5'"},
      {"1.0,report_lost,+2,2,3", "bad serving_cell '+2'"},
  };
  for (const auto& [row, why] : cases) {
    std::stringstream is("t_s,kind,serving_cell,target_cell,serving_snr_db\n"
                         "0.5,handover_complete,1,2,3\n" +
                         std::string(row) + "\n");
    try {
      rt::read_event_csv(is);
      ADD_FAILURE() << "accepted '" << row << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("event CSV line 3: ") + why);
    }
  }
  // The payload takes everything format_double writes, non-finite too.
  const double inf = std::numeric_limits<double>::infinity();
  const rs::EventLog odd = {
      {1.0, rs::EventKind::kReportLost, 4, 2,
       std::numeric_limits<double>::quiet_NaN()},
      {2.0, rs::EventKind::kReportLost, 4, 2, -inf},
      {3.0, rs::EventKind::kReportLost, 4, 2, inf}};
  std::stringstream ss;
  rt::write_event_csv(odd, ss);
  const auto back = rt::read_event_csv(ss);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(std::isnan(back[0].serving_snr_db));
  EXPECT_EQ(back[1].serving_snr_db, -inf);
  EXPECT_EQ(back[2].serving_snr_db, inf);
}

TEST(EventLog, FuzzedInputNeverCrashesAndAlwaysNamesContext) {
  // Deterministic fuzz over structured corruptions of a valid file:
  // truncated lines, embedded delimiters, out-of-range enum/int/double
  // text, shuffled bytes. Every input must either parse or throw a
  // std::runtime_error whose message carries the "event CSV" context —
  // never crash, hang, or leak a bare std::sto* exception.
  const std::string valid =
      "t_s,kind,serving_cell,target_cell,serving_snr_db\n"
      "1.0,handover_complete,1,2,3.5\n"
      "2.0,radio_link_failure,2,-1,-9.25\n"
      "3.5,reestablished,0,-1,1.0\n";
  const auto feed = [](const std::string& text) {
    std::stringstream is(text);
    try {
      (void)rt::read_event_csv(is);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("event CSV"), std::string::npos)
          << "input: " << text;
    }
    // Any other exception type escapes and fails the test.
  };

  rem::common::Rng rng(2024);
  const auto pick = [&rng](std::size_t n) {  // uniform index in [0, n)
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string s = valid;
    switch (trial % 5) {
      case 0:  // truncate anywhere, including mid-field and mid-header
        s = s.substr(0, pick(s.size() + 1));
        break;
      case 1: {  // inject a delimiter / newline / NUL at a random spot
        const char inject[] = {',', '\n', '\r', '\0', ';'};
        s.insert(pick(s.size() + 1), 1, inject[pick(5)]);
        break;
      }
      case 2: {  // replace the kind with out-of-range enum spellings
        const char* kinds[] = {"15", "-1", "999999", "handover_completex",
                               "HANDOVER_COMPLETE", ""};
        const std::string k = kinds[pick(6)];
        const auto pos = s.find("handover_complete");
        s = s.substr(0, pos) + k + s.substr(pos + 17);
        break;
      }
      case 3: {  // replace a numeric field with overflow/garbage text
        const char* nums[] = {"1e999", "99999999999999999999", "nan(",
                              "0x1p+2000", "--3", "3..5"};
        const auto pos = s.find("3.5");
        s = s.substr(0, pos) + nums[pick(6)] + s.substr(pos + 3);
        break;
      }
      case 4: {  // swap two random bytes
        std::swap(s[pick(s.size())], s[pick(s.size())]);
        break;
      }
    }
    feed(s);
  }

  // Pinned edge cases the random walk might miss.
  feed("");                                   // empty file
  feed("\n\n\n");                             // only blank lines
  feed(std::string(1 << 16, ','));            // delimiter flood
  feed("t_s,kind,serving_cell,target_cell,serving_snr_db\n" +
       std::string(1 << 16, 'x') + "\n");     // one enormous field
  feed("t_s,kind,serving_cell,target_cell,serving_snr_db\n"
       "1.0,handover_complete,1,2,3.5,extra\n");  // too many fields
}

TEST(EventLog, SimulatorRecordsConsistentLog) {
  const auto sc = rt::make_scenario(rt::Route::kBeijingShanghai, 300.0,
                                    400.0);
  rem::common::Rng rng(7);
  auto cells = rs::make_rail_deployment(sc.deployment, rng);
  rs::RadioEnv env(cells, sc.propagation, rng.fork());
  auto policies = rt::synthesize_policies(cells, sc.policy_mix, rng);
  rem::phy::LogisticBlerModel bler;
  rem::core::LegacyConfig lc;
  lc.policies = policies;
  rem::core::LegacyManager mgr(lc);
  auto sim_cfg = sc.sim;
  sim_cfg.record_events = true;
  rs::Simulator sim(env, sim_cfg, bler, rng.fork());
  const auto stats = sim.run(mgr);

  ASSERT_FALSE(stats.events.empty());
  EXPECT_GE(stats.successful_handovers, 2);
  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < stats.events.size(); ++i)
    EXPECT_GE(stats.events[i].t_s, stats.events[i - 1].t_s);
  // CSV round trip of a real log: every column comes back bit for bit.
  std::stringstream ss;
  rt::write_event_csv(stats.events, ss);
  const auto back = rt::read_event_csv(ss);
  ASSERT_EQ(back.size(), stats.events.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto& e = stats.events[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(bits(back[i].t_s), bits(e.t_s));
    EXPECT_EQ(back[i].kind, e.kind);
    EXPECT_EQ(back[i].serving_cell, e.serving_cell);
    EXPECT_EQ(back[i].target_cell, e.target_cell);
    EXPECT_EQ(bits(back[i].serving_snr_db), bits(e.serving_snr_db));
  }
}

// ---------- Movement estimation ----------

TEST(Movement, SpeedFromLosDoppler) {
  // 350 km/h at 2 GHz: nu_max = v f / c ~ 648 Hz.
  const double v = 350.0 / 3.6;
  const double f = 2.0e9;
  const double nu = v * f / rem::common::kSpeedOfLight;
  std::vector<rem::crossband::ExtractedPath> paths = {
      {100e-9, nu, 1.0},          // LOS, aligned
      {400e-9, -0.3 * nu, 0.2}};  // scatterer behind
  const auto est = rem::crossband::estimate_movement(paths, f);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->speed_mps, v, 0.5);
  EXPECT_DOUBLE_EQ(est->heading_sign, 1.0);
  EXPECT_NEAR(est->delay_spread_m, 300e-9 * rem::common::kSpeedOfLight,
              1.0);
  EXPECT_NEAR(est->doppler_spread_hz, 1.3 * nu, 1.0);
}

TEST(Movement, RecedingHeading) {
  std::vector<rem::crossband::ExtractedPath> paths = {
      {0.0, -500.0, 1.0}};
  const auto est = rem::crossband::estimate_movement(paths, 2e9);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->heading_sign, -1.0);
}

TEST(Movement, EmptyInput) {
  EXPECT_FALSE(
      rem::crossband::estimate_movement({}, 2e9).has_value());
  std::vector<rem::crossband::ExtractedPath> p = {{0, 100, 1}};
  EXPECT_FALSE(rem::crossband::estimate_movement(p, 0.0).has_value());
}

TEST(Movement, EndToEndFromSvdExtraction) {
  // Full pipeline: draw an HST channel, estimate it, run Algorithm 1,
  // then recover the client's speed from the extracted paths.
  rem::common::Rng rng(11);
  rem::channel::ChannelDrawConfig draw;
  draw.profile = rem::channel::Profile::kHST350;
  draw.speed_mps = 350.0 / 3.6;
  draw.carrier_hz = 1.88e9;
  const auto ch = rem::channel::draw_channel(draw, rng);

  rem::phy::Numerology num;
  num.num_subcarriers = 64;
  num.num_symbols = 32;  // finer Doppler resolution for speed estimation
  num.cp_len = 16;
  rem::phy::DdChannelEstimator dd(num);
  rem::crossband::CrossbandInput in;
  in.num = num;
  in.f1_hz = 1.88e9;
  in.f2_hz = 1.88e9;  // same band: pure analysis run
  in.h1_dd = dd.estimate(ch, 25.0, rng).h;
  in.h1_tf = rem::dsp::Matrix(64, 32);

  rem::crossband::RemSvdEstimator est;
  est.estimate(in);
  const auto mv =
      rem::crossband::estimate_movement(est.last_paths(), 1.88e9);
  ASSERT_TRUE(mv.has_value());
  // LOS Doppler is within [0.9, 1.0] nu_max by construction, so the
  // speed estimate lands within ~25% of truth.
  EXPECT_NEAR(mv->speed_mps, draw.speed_mps, 0.25 * draw.speed_mps);
}
