// Golden-trace regression suite: replay every corpus case and diff its
// digest — all SimStats scalars plus an exact event-log hash — against
// the committed JSON under tests/golden/. Any behavioral drift fails with
// the exact field(s) that moved; run scripts/update_goldens.sh when the
// change is intentional. Also unit-tests the digest codec itself.
#include "golden_runner.hpp"

#include "common/parallel.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace {

using rem::testkit::GoldenCase;
using rem::testkit::TraceDigest;

TEST(GoldenTraces, CorpusCoversAllRoutesAndFaultPresets) {
  const auto corpus = rem::testkit::golden_corpus();
  ASSERT_GE(corpus.size(), 12u);
  bool la = false, bt = false, bs = false, none = false, mixed = false;
  bool partition = false, loss_reorder = false;
  for (const auto& c : corpus) {
    la = la || c.route == rem::trace::Route::kLowMobilityLA;
    bt = bt || c.route == rem::trace::Route::kBeijingTaiyuan;
    bs = bs || c.route == rem::trace::Route::kBeijingShanghai;
    none = none || c.fault_preset == "none";
    mixed = mixed || c.fault_preset == "mixed";
    partition = partition || c.fault_preset == "backhaul_partition";
    loss_reorder = loss_reorder || c.fault_preset == "backhaul_loss_reorder";
  }
  EXPECT_TRUE(la && bt && bs);
  EXPECT_TRUE(none && mixed);
  EXPECT_TRUE(partition && loss_reorder);
}

TEST(GoldenTraces, FleetCorpusCoversContentionAndPartition) {
  const auto fleet = rem::testkit::fleet_golden_corpus();
  ASSERT_GE(fleet.size(), 2u);
  bool overload = false, partition = false;
  for (const auto& c : fleet) {
    EXPECT_GE(c.fleet_size, 2) << c.name;
    EXPECT_EQ(c.name.rfind("fleet_", 0), 0u) << c.name;
    overload = overload || c.fault_preset == "bs_overload_shed";
    partition = partition || c.fault_preset == "backhaul_partition";
  }
  EXPECT_TRUE(overload && partition);
}

// The replay: one corpus case per thread-pool job (REM_BENCH_THREADS
// respected via bench_threads()), each diffed against its committed
// digest. The runs are seed-deterministic, so this passes identically at
// any thread count.
TEST(GoldenTraces, ReplayMatchesCommittedDigests) {
  const auto jobs = rem::testkit::golden_jobs();
  std::vector<TraceDigest> actual(jobs.size());
  std::vector<std::string> errors(jobs.size());
  rem::common::parallel_for(
      jobs.size(), rem::testkit::bench_threads(), [&](std::size_t i) {
        try {
          actual[i] = jobs[i].run();
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("case " + jobs[i].name);
    ASSERT_TRUE(errors[i].empty()) << errors[i];
    TraceDigest expected;
    try {
      expected = rem::testkit::read_digest_json_file(
          std::string(REM_GOLDEN_DIR) + "/" + jobs[i].name + ".json");
    } catch (const std::exception& e) {
      FAIL() << "cannot load committed digest (run "
                "scripts/update_goldens.sh?): "
             << e.what();
    }
    const auto diff = rem::testkit::diff_digests(expected, actual[i]);
    for (const auto& line : diff) ADD_FAILURE() << line;
    EXPECT_TRUE(diff.empty())
        << diff.size()
        << " field(s) drifted; run scripts/update_goldens.sh if the "
           "behavior change is intentional";
  }
}

// ---- Digest codec ----

TEST(GoldenDigest, JsonRoundTripIsExact) {
  TraceDigest d;
  d.case_name = "codec_case";
  d.fields = {{"route", "bs"},
              {"legacy.handovers", "12"},
              {"legacy.mean_throughput_bps", "123456789.12345679"},
              {"rem.event_hash", "0x00ff00ff00ff00ff"},
              {"weird \"quoted\" key", "back\\slash"}};
  std::ostringstream os;
  rem::testkit::write_digest_json(d, os);
  std::istringstream is(os.str());
  const auto back = rem::testkit::read_digest_json(is);
  EXPECT_EQ(back.case_name, d.case_name);
  EXPECT_EQ(back.fields, d.fields);
  EXPECT_TRUE(rem::testkit::diff_digests(d, back).empty());
}

TEST(GoldenDigest, DiffNamesEveryDriftedField) {
  TraceDigest a, b;
  a.case_name = b.case_name = "x";
  a.fields = {{"f1", "1"}, {"f2", "2"}, {"f3", "3"}};
  b.fields = {{"f1", "1"}, {"f2", "99"}, {"f4", "4"}};
  const auto diff = rem::testkit::diff_digests(a, b);
  ASSERT_EQ(diff.size(), 3u);  // f2 changed, f3 missing, f4 extra
  EXPECT_NE(diff[0].find("f2"), std::string::npos);
  EXPECT_NE(diff[0].find("expected '2', got '99'"), std::string::npos);
}

TEST(GoldenDigest, ReaderRejectsMalformedInputWithContext) {
  const auto reject = [](const std::string& text) {
    std::istringstream is(text);
    try {
      rem::testkit::read_digest_json(is);
      return std::string();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  EXPECT_NE(reject("{\n  \"case\": \"a\"\n").find("unterminated"),
            std::string::npos);
  EXPECT_NE(reject("{\n  not json\n}\n").find("line 2"), std::string::npos);
  EXPECT_NE(reject("{\n  \"k\": \"v\"\n}\n").find("missing the 'case'"),
            std::string::npos);
  EXPECT_NE(reject("").find("unterminated"), std::string::npos);
  EXPECT_FALSE(reject("junk before\n{\n}\n").empty());
  EXPECT_NE(reject("{\n  \"case\": \"a\",\n  \"legacy.failures\": \"1\",\n"
                   "  \"legacy.failures\": \"2\"\n}\n")
                .find("line 4: duplicate key 'legacy.failures'"),
            std::string::npos);
}

TEST(GoldenDigest, EventHashIsOrderAndValueSensitive) {
  rem::sim::EventLog log;
  log.push_back({1.0, rem::sim::EventKind::kHandoverComplete, 0, 1, -3.5});
  log.push_back({2.0, rem::sim::EventKind::kRadioLinkFailure, 1, -1, -9.0});
  const auto h = rem::testkit::hash_event_log(log);
  EXPECT_EQ(h, rem::testkit::hash_event_log(log));  // deterministic

  auto reordered = log;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(h, rem::testkit::hash_event_log(reordered));

  auto tweaked = log;
  tweaked[1].serving_snr_db += 1e-12;  // any bit flip must show
  EXPECT_NE(h, rem::testkit::hash_event_log(tweaked));

  EXPECT_NE(h, rem::testkit::hash_event_log({}));
}

TEST(GoldenDigest, UnknownFaultPresetIsRejected) {
  EXPECT_THROW(rem::testkit::golden_fault_preset("nope", 100.0),
               std::invalid_argument);
  EXPECT_TRUE(rem::testkit::golden_fault_preset("none", 100.0).empty());
  EXPECT_FALSE(rem::testkit::golden_fault_preset("mixed", 100.0).empty());
  EXPECT_FALSE(
      rem::testkit::golden_fault_preset("backhaul_partition", 100.0).empty());
  EXPECT_FALSE(rem::testkit::golden_fault_preset("backhaul_loss_reorder",
                                                 100.0)
                   .empty());
}

TEST(GoldenDigest, BackhaulPresetsPassScriptedValidation) {
  // Every committed preset must survive the injector's scripted-window
  // validation at a representative horizon.
  for (const char* preset :
       {"mixed", "backhaul_partition", "backhaul_loss_reorder"}) {
    SCOPED_TRACE(preset);
    const auto fc = rem::testkit::golden_fault_preset(preset, 120.0);
    EXPECT_NO_THROW(
        rem::sim::FaultInjector(fc, 120.0, rem::common::Rng(1)));
  }
}

}  // namespace
