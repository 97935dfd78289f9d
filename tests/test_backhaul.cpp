// rem::net backhaul transport: wire-codec round trips and pinned
// malformed-frame rejections, a seeded corruption fuzz over the decoder
// (never crash, never silently accept garbage), SequenceTracker
// idempotency, BackhaulConfig validation, deterministic delivery under
// loss/reorder/duplication/partition, and the simulator-level preparation
// FSM behavior the transport enables (prep before command, retries under
// loss, fallback/failure under partition, and bit-identical runs).
#include "net/backhaul.hpp"
#include "net/message.hpp"
#include "scenario_runner.hpp"
#include "sim/fault_injector.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace rn = rem::net;
namespace rs = rem::sim;

namespace {

rn::BackhaulMessage sample_message() {
  rn::BackhaulMessage m;
  m.seq = 0x0123456789abcdefull;
  m.type = rn::MsgType::kHandoverAck;
  m.src_cell = 7;
  m.dst_cell = 12;
  m.target_cell = 12;
  m.payload = -93.25;
  return m;
}

}  // namespace

// ---------- Wire codec ----------

TEST(BackhaulCodec, RoundTripsEveryTypeAndFieldExactly) {
  for (int t = 1; t <= static_cast<int>(rn::kNumMsgTypes); ++t) {
    rn::BackhaulMessage m = sample_message();
    m.type = static_cast<rn::MsgType>(t);
    m.seq = static_cast<std::uint64_t>(t) << 40;
    m.src_cell = t - 2;  // exercises -1 and small indices
    m.payload = t * 1.5e-3;
    const auto frame = rn::encode_message(m);
    ASSERT_EQ(frame.size(), rn::kFrameSize);
    const auto back = rn::decode_message(frame);
    EXPECT_EQ(back.seq, m.seq);
    EXPECT_EQ(back.type, m.type);
    EXPECT_EQ(back.src_cell, m.src_cell);
    EXPECT_EQ(back.dst_cell, m.dst_cell);
    EXPECT_EQ(back.target_cell, m.target_cell);
    EXPECT_EQ(back.payload, m.payload);
  }
}

TEST(BackhaulCodec, PayloadBitsSurviveIncludingNonFinite) {
  for (const double p : {0.0, -0.0, 1e-300, -1e300,
                         std::numeric_limits<double>::infinity()}) {
    rn::BackhaulMessage m = sample_message();
    m.payload = p;
    const auto back = rn::decode_message(rn::encode_message(m));
    std::uint64_t a, b;
    std::memcpy(&a, &m.payload, sizeof(a));
    std::memcpy(&b, &back.payload, sizeof(b));
    EXPECT_EQ(a, b);
  }
}

TEST(BackhaulCodec, PinnedMalformedFramesRejectWithContext) {
  const auto frame = rn::encode_message(sample_message());
  const auto reject = [](std::vector<std::uint8_t> f,
                         const std::string& needle) {
    try {
      rn::decode_message(f);
      ADD_FAILURE() << "frame accepted; expected rejection on " << needle;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("backhaul frame"), std::string::npos) << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  };

  reject({}, "length");                                  // empty
  reject({frame.begin(), frame.begin() + 35}, "length"); // truncated
  auto longer = frame;
  longer.push_back(0);
  reject(longer, "length");                              // trailing junk

  auto bad_magic = frame;
  bad_magic[0] ^= 0xff;
  reject(bad_magic, "magic");

  auto bad_version = frame;
  bad_version[2] = 9;
  // Version bumps re-checksum cleanly in a real sender; a decoder seeing a
  // foreign version must say so before checksum noise confuses the story.
  reject(bad_version, "version");

  auto bad_checksum = frame;
  bad_checksum[rn::kFrameSize - 1] ^= 0x01;
  reject(bad_checksum, "checksum");
  auto flipped_body = frame;
  flipped_body[10] ^= 0x40;  // inside seq; checksum must catch it
  reject(flipped_body, "checksum");
}

TEST(BackhaulCodec, RejectsUnknownTypeAndBadCellsPastChecksum) {
  // Re-checksummed frames isolate the field checks from the checksum one.
  const auto rebuild = [](rn::BackhaulMessage m) {
    return rn::encode_message(m);
  };
  rn::BackhaulMessage m = sample_message();
  m.src_cell = -2;
  try {
    rn::decode_message(rebuild(m));
    ADD_FAILURE() << "cell index -2 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell"), std::string::npos)
        << e.what();
  }
  // Type is validated inside decode, so a hand-corrupted type byte with a
  // fixed-up checksum must still be rejected.
  auto frame = rebuild(sample_message());
  frame[3] = 0;  // type slot
  try {
    rn::decode_message(frame);
    ADD_FAILURE() << "type 0 accepted";
  } catch (const std::runtime_error& e) {
    // Either the checksum or the type check fires; both are rejections
    // with context, and neither may crash.
    EXPECT_NE(std::string(e.what()).find("backhaul frame"),
              std::string::npos);
  }
}

TEST(BackhaulCodec, SeededCorruptionFuzzNeverCrashes) {
  rem::common::Rng rng(20260806);
  const auto base = rn::encode_message(sample_message());
  int rejected = 0, accepted = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    auto f = base;
    // Corrupt 1..6 random bytes (bit flips or full rewrites), sometimes
    // truncate or extend.
    const int edits = static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < edits; ++e) {
      const auto i =
          static_cast<std::size_t>(rng.uniform_int(0, rn::kFrameSize - 1));
      if (rng.bernoulli(0.5))
        f[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      else
        f[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.1))
      f.resize(static_cast<std::size_t>(rng.uniform_int(0, rn::kFrameSize)));
    try {
      const auto m = rn::decode_message(f);
      // Survivors must be internally valid (the corruption was a no-op or
      // an astronomically unlikely checksum collision on valid fields).
      EXPECT_GE(static_cast<int>(m.type), 1);
      EXPECT_LE(static_cast<int>(m.type),
                static_cast<int>(rn::kNumMsgTypes));
      EXPECT_GE(m.src_cell, -1);
      EXPECT_GE(m.dst_cell, -1);
      EXPECT_GE(m.target_cell, -1);
      ++accepted;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The checksum must be doing real work: the overwhelming majority of
  // corruptions are rejected, and the no-op survivors are a handful.
  EXPECT_GT(rejected, 4500);
  EXPECT_LT(accepted, 500);
}

TEST(BackhaulCodec, RandomGarbageFramesAlwaysReject) {
  rem::common::Rng rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> f(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_THROW(rn::decode_message(f), std::runtime_error);
  }
}

// ---------- SequenceTracker ----------

TEST(SequenceTracker, AcceptsOnceAndCountsDuplicates) {
  rn::SequenceTracker t;
  EXPECT_TRUE(t.accept(5));
  EXPECT_FALSE(t.accept(5));
  EXPECT_FALSE(t.accept(5));
  EXPECT_TRUE(t.accept(6));
  EXPECT_TRUE(t.accept(1));  // out-of-order first sighting still accepted
  EXPECT_FALSE(t.accept(1));
  EXPECT_TRUE(t.seen(5) && t.seen(6) && t.seen(1));
  EXPECT_FALSE(t.seen(2));
  EXPECT_EQ(t.duplicates(), 3u);
}

// ---------- Config validation ----------

TEST(BackhaulConfig, RejectsInvalidFieldsWithContext) {
  const auto build = [](void (*tweak)(rn::BackhaulConfig&)) {
    rn::BackhaulConfig cfg;
    tweak(cfg);
    rn::BackhaulNetwork net(cfg, rem::common::Rng(1));
  };
  EXPECT_NO_THROW(build([](rn::BackhaulConfig&) {}));
  const auto expect_reject = [&](void (*tweak)(rn::BackhaulConfig&),
                                 const std::string& field) {
    try {
      build(tweak);
      ADD_FAILURE() << "config accepted; expected rejection on " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_reject([](rn::BackhaulConfig& c) { c.base_latency_s = 0.0; },
                "base_latency_s");
  expect_reject([](rn::BackhaulConfig& c) { c.jitter_s = -0.001; },
                "jitter_s");
  expect_reject([](rn::BackhaulConfig& c) { c.loss_prob = 1.5; },
                "loss_prob");
  expect_reject([](rn::BackhaulConfig& c) { c.reorder_prob = -0.1; },
                "reorder_prob");
  expect_reject([](rn::BackhaulConfig& c) { c.reorder_extra_s = -1.0; },
                "reorder_extra_s");
  expect_reject([](rn::BackhaulConfig& c) { c.duplicate_prob = 2.0; },
                "duplicate_prob");
  expect_reject([](rn::BackhaulConfig& c) { c.queue_capacity = 0; },
                "queue_capacity");
}

// ---------- Transport semantics ----------

TEST(BackhaulNetwork, DeliversInOrderWithBoundedLatency) {
  rn::BackhaulConfig cfg;
  cfg.base_latency_s = 0.004;
  cfg.jitter_s = 0.002;
  rn::BackhaulNetwork net(cfg, rem::common::Rng(3));
  for (std::uint64_t s = 1; s <= 20; ++s) {
    rn::BackhaulMessage m = sample_message();
    m.seq = s;
    ASSERT_TRUE(net.send(0.01 * s, m));
  }
  std::uint64_t last_seq = 0;
  double t = 0.0;
  std::size_t delivered = 0;
  while (delivered < 20 && t < 2.0) {
    t += 0.001;
    for (const auto& m : net.poll(t)) {
      // 10 ms spacing > max jitter, so order is preserved.
      EXPECT_GT(m.seq, last_seq);
      last_seq = m.seq;
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 20u);
  const auto& st = net.stats();
  EXPECT_EQ(st.sent, 20u);
  EXPECT_EQ(st.delivered, 20u);
  EXPECT_EQ(st.dropped_loss + st.dropped_partition + st.dropped_queue, 0u);
  EXPECT_GE(st.latency_sum_s, 20 * cfg.base_latency_s);
  EXPECT_LE(st.latency_sum_s, 20 * (cfg.base_latency_s + cfg.jitter_s));
}

TEST(BackhaulNetwork, SameSeedReplaysIdenticalTimeline) {
  rn::BackhaulConfig cfg;
  cfg.jitter_s = 0.003;
  cfg.loss_prob = 0.2;
  cfg.reorder_prob = 0.3;
  cfg.reorder_extra_s = 0.006;
  cfg.duplicate_prob = 0.2;
  const auto run = [&](std::uint64_t seed) {
    rn::BackhaulNetwork net(cfg, rem::common::Rng(seed));
    std::vector<std::pair<double, std::uint64_t>> timeline;
    for (int i = 0; i < 200; ++i) {
      rn::BackhaulMessage m = sample_message();
      m.seq = static_cast<std::uint64_t>(i) + 1;
      net.send(0.002 * i, m);
      for (const auto& d : net.poll(0.002 * i))
        timeline.emplace_back(0.002 * i, d.seq);
    }
    for (const auto& d : net.poll(10.0)) timeline.emplace_back(10.0, d.seq);
    return timeline;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(BackhaulNetwork, LossPartitionQueueAndDuplicationAccounting) {
  // Certain loss drops everything.
  {
    rn::BackhaulConfig cfg;
    cfg.loss_prob = 1.0;
    rn::BackhaulNetwork net(cfg, rem::common::Rng(1));
    EXPECT_FALSE(net.send(0.0, sample_message()));
    EXPECT_TRUE(net.poll(1.0).empty());
    EXPECT_EQ(net.stats().dropped_loss, 1u);
  }
  // Partition drops without consuming randomness: a message sent through a
  // partition must not shift the delay sequence of later sends.
  {
    rn::BackhaulConfig cfg;
    cfg.jitter_s = 0.002;
    rn::BackhaulNetwork with_partition(cfg, rem::common::Rng(9));
    rn::BackhaulNetwork without(cfg, rem::common::Rng(9));
    EXPECT_FALSE(with_partition.send(0.0, sample_message(), 0.0, 0.0,
                                     /*partitioned=*/true));
    EXPECT_EQ(with_partition.stats().dropped_partition, 1u);
    ASSERT_TRUE(with_partition.send(0.1, sample_message()));
    ASSERT_TRUE(without.send(0.1, sample_message()));
    auto a = with_partition.poll(1.0);
    auto b = without.poll(1.0);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(with_partition.stats().latency_sum_s,
              without.stats().latency_sum_s);
  }
  // A full queue rejects overload instead of growing without bound.
  {
    rn::BackhaulConfig cfg;
    cfg.queue_capacity = 2;
    rn::BackhaulNetwork net(cfg, rem::common::Rng(1));
    EXPECT_TRUE(net.send(0.0, sample_message()));
    EXPECT_TRUE(net.send(0.0, sample_message()));
    EXPECT_FALSE(net.send(0.0, sample_message()));
    EXPECT_EQ(net.stats().dropped_queue, 1u);
    EXPECT_EQ(net.in_flight(), 2u);
  }
  // Certain duplication delivers two copies of each frame.
  {
    rn::BackhaulConfig cfg;
    cfg.duplicate_prob = 1.0;
    rn::BackhaulNetwork net(cfg, rem::common::Rng(1));
    EXPECT_TRUE(net.send(0.0, sample_message()));
    EXPECT_EQ(net.poll(1.0).size(), 2u);
    EXPECT_EQ(net.stats().duplicated, 1u);
    EXPECT_EQ(net.stats().delivered, 2u);
  }
}

TEST(BackhaulNetwork, PollReturnsDueFramesInDeliveryOrder) {
  rn::BackhaulConfig cfg;
  cfg.base_latency_s = 0.004;
  cfg.reorder_prob = 1.0;   // every frame gets an extra delay draw
  cfg.reorder_extra_s = 0.050;
  rn::BackhaulNetwork net(cfg, rem::common::Rng(5));
  for (std::uint64_t s = 1; s <= 50; ++s) {
    rn::BackhaulMessage m = sample_message();
    m.seq = s;
    ASSERT_TRUE(net.send(0.0, m));
  }
  const auto out = net.poll(1.0);
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(net.stats().reordered, 50u);
  // Sequence order was scrambled by the random extra delays...
  bool scrambled = false;
  for (std::size_t i = 1; i < out.size(); ++i)
    if (out[i].seq < out[i - 1].seq) scrambled = true;
  EXPECT_TRUE(scrambled);
}

// ---------- Simulator-level preparation FSM ----------

namespace {

rem::bench::SeedRunResult run_scenario(const rs::FaultConfig& faults,
                                       double duration_s = 80.0,
                                       bool backhaul_enabled = true) {
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, duration_s);
  sc.sim.faults = faults;
  sc.sim.backhaul.enabled = backhaul_enabled;
  return rem::bench::run_seed(sc, 1, true, bler);
}

}  // namespace

TEST(BackhaulFsm, EveryHandoverIsPreparedOverTheTransport) {
  const auto r = run_scenario({});
  ASSERT_GT(r.rem.handovers, 0);
  EXPECT_GT(r.rem.prep_requests, 0);
  EXPECT_GE(r.rem.prep_acks, r.rem.handovers);
  EXPECT_EQ(r.rem.prep_failures, 0);
  EXPECT_GT(r.rem.backhaul_sent, 0u);
  // Request->ack round trips respect the 2x one-way floor on average too.
  ASSERT_GT(r.rem.prep_acks, 0);
  EXPECT_GE(r.rem.prep_rtt_sum_s / r.rem.prep_acks,
            2.0 * rn::BackhaulConfig{}.base_latency_s);
}

TEST(BackhaulFsm, DisabledTransportRunsTheDirectPath) {
  const auto r = run_scenario({}, 80.0, /*backhaul_enabled=*/false);
  ASSERT_GT(r.rem.handovers, 0);
  EXPECT_EQ(r.rem.prep_requests, 0);
  EXPECT_EQ(r.rem.prep_acks, 0);
  EXPECT_EQ(r.rem.backhaul_sent, 0u);
}

TEST(BackhaulFsm, LossTriggersRetriesNotFailures) {
  rs::FaultConfig faults;
  faults.windows = {{rs::FaultKind::kBackhaulLoss, 5.0, 70.0, 0.35}};
  const auto r = run_scenario(faults);
  EXPECT_GT(r.rem.prep_retries + r.legacy.prep_retries, 0);
  EXPECT_EQ(r.rem.prep_failures, 0);
  EXPECT_GT(r.rem.backhaul_dropped_loss + r.legacy.backhaul_dropped_loss,
            0u);
}

TEST(BackhaulFsm, PartitionExhaustsRetriesIntoFallbackOrFailure) {
  // One long partition covering most of the run: preparations inside it
  // must exhaust their backoff budget and take the fallback/failure path;
  // the run itself must stay invariant-clean (run_seed throws otherwise).
  rs::FaultConfig faults;
  faults.windows = {{rs::FaultKind::kBackhaulPartition, 10.0, 60.0, 1.0}};
  const auto r = run_scenario(faults);
  EXPECT_GT(r.rem.backhaul_dropped_partition +
                r.legacy.backhaul_dropped_partition,
            0u);
  EXPECT_GT(r.rem.prep_fallbacks + r.rem.prep_failures +
                r.legacy.prep_fallbacks + r.legacy.prep_failures,
            0);
  // Retry budgets hold even while the link is down.
  const int budget = rs::kPrepMaxRetries;
  EXPECT_LE(r.rem.prep_retries,
            (r.rem.prep_requests + r.rem.prep_fallbacks) * budget);
}

TEST(BackhaulFsm, DelaySpikesStretchRttWithoutFailures) {
  rs::FaultConfig faults;
  faults.windows = {{rs::FaultKind::kBackhaulDelay, 5.0, 70.0, 0.025}};
  const auto spiked = run_scenario(faults);
  const auto calm = run_scenario({});
  ASSERT_GT(spiked.rem.prep_acks, 0);
  ASSERT_GT(calm.rem.prep_acks, 0);
  EXPECT_GT(spiked.rem.prep_rtt_sum_s / spiked.rem.prep_acks,
            calm.rem.prep_rtt_sum_s / calm.rem.prep_acks);
  EXPECT_EQ(spiked.rem.prep_failures, 0);
}

TEST(BackhaulFsm, RunsAreBitIdenticalWithTransportEnabled) {
  const auto a = run_scenario({});
  const auto b = run_scenario({});
  EXPECT_EQ(rem::testkit::diff_stats(a.legacy, b.legacy), "");
  EXPECT_EQ(rem::testkit::diff_stats(a.rem, b.rem), "");
}
