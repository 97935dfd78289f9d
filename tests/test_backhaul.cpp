// rem::net backhaul transport: BackhaulConfig validation, deterministic
// delivery under loss/reorder/duplication/partition, and the
// simulator-level preparation FSM behavior the transport enables (prep
// before command, retries under loss, fallback/failure under partition,
// duplicated answers counted once, and bit-identical runs).
#include "fleet_runner.hpp"
#include "net/backhaul.hpp"
#include "net/message.hpp"
#include "sim/fault_injector.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <map>
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

TEST(BackhaulFsm, DuplicatedAnswersCountOnce) {
  // Every message goes out twice while a BS crashes and restarts, so
  // every HANDOVER REQUEST and context fetch draws at least two answers.
  // The runners' invariant checkers reject a prep ack without an
  // outstanding request and any break in outcome conservation. A UE's
  // context fetch answers once per outage (the events from one RLF or
  // T304 expiry to the next), so stale replies cannot outnumber the
  // outages either.
  rem::phy::LogisticBlerModel bler;
  auto sc = rem::testkit::golden_scenario(rem::trace::Route::kBeijingShanghai,
                                          300.0, 120.0, "bs_crash_restart");
  sc.sim.backhaul.duplicate_prob = 1.0;
  const auto single = rem::bench::run_seed(sc, 1, true, bler);
  sc.sim.fleet_size = 6;
  const auto fleet = rem::bench::run_fleet_scenario(sc, 1, bler, true);
  int stale = 0;
  for (const rs::SimStats* s :
       {&single.legacy, &single.rem, &fleet.aggregate}) {
    EXPECT_GT(s->backhaul_duplicated, 0u);
    EXPECT_GT(s->prep_acks, 0);
    EXPECT_LE(s->stale_context_responses, s->failures);
    stale += s->stale_context_responses;
    std::map<int, int> stale_this_outage;  // per UE
    for (const auto& e : s->events) {
      if (e.kind == rs::EventKind::kRadioLinkFailure ||
          e.kind == rs::EventKind::kT304Expiry)
        stale_this_outage[e.ue] = 0;
      if (e.kind == rs::EventKind::kContextStale) {
        EXPECT_LE(++stale_this_outage[e.ue], 1)
            << "UE " << e.ue << " at t=" << e.t_s;
      }
    }
  }
  EXPECT_GT(stale, 0);
}

TEST(BackhaulFsm, RunsAreBitIdenticalWithTransportEnabled) {
  const auto a = run_scenario({});
  const auto b = run_scenario({});
  EXPECT_EQ(rem::testkit::diff_stats(a.legacy, b.legacy), "");
  EXPECT_EQ(rem::testkit::diff_stats(a.rem, b.rem), "");
}
