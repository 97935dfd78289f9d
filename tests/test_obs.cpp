// Unit tests for the rem::obs metric values: counter and gauge semantics,
// histogram bucket edges, snapshot merge algebra, the flat-JSON codec's
// round trip and reject-with-context behavior, deterministic merges of
// snapshots filled on several threads, and the allocation-free recording
// paths of the snapshot and of the span tracer.
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using rem::obs::HistogramSnapshot;
using rem::obs::MetricsSnapshot;

// Global allocation counter for the allocation-free recording test.
// Counting every operator new in the process is coarse but exactly what we
// want: any allocation between two probes is visible.
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Kept out of line: GCC 12 inlines a replaced operator delete into
// gtest's `new TestClass` cleanup path and then reports its free() as
// mismatched with the operator new it pairs with (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

TEST(Counter, AddsMonotonically) {
  MetricsSnapshot s;
  s.add_counter("c", 0);  // get-or-insert: present at zero
  ASSERT_NE(s.find_counter("c"), nullptr);
  EXPECT_EQ(s.find_counter("c")->value, 0u);
  s.add_counter("c", 1);
  s.add_counter("c", 41);
  // Same name, same entry.
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.find_counter("c")->value, 42u);
}

TEST(Gauge, KeepsLastWrite) {
  MetricsSnapshot s;
  s.set_gauge("g", 1.5);
  s.set_gauge("g", -3.25);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.find_gauge("g")->value, -3.25);
}

TEST(Histogram, BucketEdgesAreUpperInclusive) {
  HistogramSnapshot h("h", {1.0, 2.0, 4.0});
  // On-edge values land in the bucket they bound; above-all goes to
  // overflow.
  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 0 (inclusive upper edge)
  h.record(1.001); // bucket 1
  h.record(4.0);   // bucket 2
  h.record(4.5);   // overflow
  h.record(-7.0);  // bucket 0 (below the first edge)
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 3u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.001 + 4.0 + 4.5 - 7.0);
}

TEST(Histogram, NanGoesToOverflow) {
  HistogramSnapshot h("h", {1.0});
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.counts[1], 1u);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(HistogramSnapshot("empty", {}), std::invalid_argument);
  EXPECT_THROW(HistogramSnapshot("unsorted", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(HistogramSnapshot("dup", {1.0, 1.0}), std::invalid_argument);
}

/// A snapshot holding one histogram named `name` over `edges` with
/// `samples` recorded.
MetricsSnapshot with_histogram(const std::string& name,
                               std::vector<double> edges,
                               std::initializer_list<double> samples) {
  HistogramSnapshot h(name, std::move(edges));
  for (double v : samples) h.record(v);
  MetricsSnapshot s;
  s.histograms.push_back(std::move(h));
  return s;
}

TEST(Snapshot, SortedByNameAndQueryable) {
  MetricsSnapshot snap;
  snap.add_counter("z", 1);
  snap.add_counter("a", 2);
  snap.set_gauge("y", 0.5);
  snap.set_gauge("b", 1.5);
  snap.merge(with_histogram("x", {1.0}, {0.25}));
  snap.merge(with_histogram("c", {1.0}, {}));
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[1].name, "z");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "b");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "c");
  ASSERT_NE(snap.find_counter("a"), nullptr);
  EXPECT_EQ(snap.find_counter("a")->value, 2u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_histogram("x"), nullptr);
  EXPECT_EQ(snap.find_histogram("x")->total_count(), 1u);
}

TEST(Snapshot, MergeAddsCountersMaxesGauges) {
  auto a = with_histogram("h", {1.0, 2.0}, {0.5});
  auto b = with_histogram("h", {1.0, 2.0}, {1.5});
  a.add_counter("shared", 2);
  b.add_counter("shared", 3);
  b.add_counter("only2", 7);
  a.set_gauge("peak", 1.0);
  b.set_gauge("peak", 4.0);

  a.merge(b);
  EXPECT_EQ(a.find_counter("shared")->value, 5u);
  EXPECT_EQ(a.find_counter("only2")->value, 7u);
  EXPECT_EQ(a.find_gauge("peak")->value, 4.0);
  const auto* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_DOUBLE_EQ(h->sum, 2.0);
}

TEST(Snapshot, MergeRejectsMismatchedEdges) {
  auto a = with_histogram("h", {1.0}, {0.5});
  EXPECT_THROW(a.merge(with_histogram("h", {2.0}, {0.5})),
               std::invalid_argument);
}

TEST(Snapshot, QuantileInterpolatesWithinBucket) {
  HistogramSnapshot h("h", {1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.record(0.5);  // all in bucket [.., 1.0]
  // Linear interpolation inside [0, 1]: median at ~0.5.
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.11);
  EXPECT_EQ(h.quantile(0.0), 0.0);
}

TEST(Codec, JsonRoundTripIsExact) {
  auto snap = with_histogram("h.lat", {0.1, 0.5, 1.0}, {0.05, 0.3, 99.0});
  snap.add_counter("c.events", 123456789);
  snap.set_gauge("g.peak", 0.1 + 0.2);  // not exactly representable: %.17g

  std::stringstream ss;
  rem::obs::write_metrics_json(snap, ss);
  const auto back = rem::obs::read_metrics_json(ss);

  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].value, 123456789u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0].value, 0.1 + 0.2);  // bit-exact round trip
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].counts, snap.histograms[0].counts);
  EXPECT_EQ(back.histograms[0].edges, snap.histograms[0].edges);
  EXPECT_EQ(back.histograms[0].sum, snap.histograms[0].sum);
}

TEST(Codec, RejectsMalformedInputWithContext) {
  const auto expect_reject = [](const std::string& text,
                                const std::string& needle) {
    std::stringstream ss(text);
    try {
      rem::obs::read_metrics_json(ss);
      FAIL() << "expected rejection for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  expect_reject("{\n\"schema\": \"bogus-v9\"\n}\n", "schema");
  expect_reject(
      "{\n\"schema\": \"rem-metrics-v1\",\n\"counter.x\": \"notanum\"\n}\n",
      "notanum");
  // 2^64 and beyond must not saturate to UINT64_MAX.
  expect_reject(
      "{\n\"schema\": \"rem-metrics-v1\",\n"
      "\"counter.x\": \"99999999999999999999\"\n}\n",
      "integer out of range '99999999999999999999'");
  expect_reject(
      "{\n\"schema\": \"rem-metrics-v1\",\n\"counter.x\": \"1\",\n"
      "\"counter.x\": \"2\"\n}\n",
      "line 4: duplicate key 'counter.x'");
  expect_reject(
      "{\n\"schema\": \"rem-metrics-v1\",\nthis is not json\n}\n", "line");
  // Histogram missing its counts part.
  expect_reject(
      "{\n\"schema\": \"rem-metrics-v1\",\n\"hist.h.edges\": \"1\",\n"
      "\"hist.h.sum\": \"0\"\n}\n",
      "histogram 'h'");
  const std::pair<const char*, const char*> cases[] = {
      // Histogram parts are assembled after the last line is read, yet
      // each error still names the part's own line.
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"hist.h.edges\": \"1,,2\",\n"
       "\"hist.h.counts\": \"0,0,0,0\",\n\"hist.h.sum\": \"0\"\n}\n",
       "metrics JSON line 3: malformed number '' in "
       "'\"hist.h.edges\": \"1,,2\",'"},
      // Edges the Histogram constructor refuses are refused here too, in
      // its words: quantile() assumes ascending edges.
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"hist.h.edges\": \"5,1\",\n"
       "\"hist.h.counts\": \"0,0,0\",\n\"hist.h.sum\": \"0\"\n}\n",
       "metrics JSON line 3: bucket edges not strictly ascending at index 1 "
       "(5 vs 1)"},
      // One number rule: strtod and strtoull take these spellings, the
      // reader must not.
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"gauge.g\": \" 0x1p3\"\n}\n",
       "metrics JSON line 3: malformed number ' 0x1p3'"},
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"gauge.g\": \"0x10\"\n}\n",
       "metrics JSON line 3: malformed number '0x10'"},
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"gauge.g\": \"+8\"\n}\n",
       "metrics JSON line 3: malformed number '+8'"},
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"counter.c\": \" 5\"\n}\n",
       "metrics JSON line 3: malformed integer ' 5'"},
      {"{\n\"schema\": \"rem-metrics-v1\",\n\"counter.c\": \"+5\"\n}\n",
       "metrics JSON line 3: malformed integer '+5'"},
  };
  for (const auto& [text, needle] : cases) expect_reject(text, needle);
}

TEST(Snapshot, MultiThreadRecordingMergesDeterministically) {
  // The seed-parallel runner's shape: each "seed" fills its own snapshot
  // on whichever worker takes it, recording a seed-determined value
  // stream; merging the snapshots in seed order must give bit-identical
  // JSON no matter how many threads ran.
  const int kSeeds = 8;
  const auto run_with_threads = [&](int num_threads) {
    std::vector<MetricsSnapshot> per_seed(kSeeds);
    std::vector<std::thread> workers;
    std::atomic<int> next{0};
    for (int t = 0; t < num_threads; ++t)
      workers.emplace_back([&] {
        for (int s = next.fetch_add(1); s < kSeeds; s = next.fetch_add(1)) {
          HistogramSnapshot h("vals", {1.0, 10.0, 100.0});
          for (int i = 0; i <= s; ++i) h.record(std::pow(3.0, s - i));
          MetricsSnapshot snap;
          snap.histograms.push_back(std::move(h));
          snap.add_counter("events", static_cast<std::uint64_t>(s) + 1);
          snap.set_gauge("peak", static_cast<double>(s));
          per_seed[static_cast<std::size_t>(s)] = std::move(snap);
        }
      });
    for (auto& w : workers) w.join();
    MetricsSnapshot merged;
    for (const auto& s : per_seed) merged.merge(s);
    std::stringstream ss;
    rem::obs::write_metrics_json(merged, ss);
    return ss.str();
  };
  const std::string one = run_with_threads(1);
  EXPECT_EQ(one, run_with_threads(2));
  EXPECT_EQ(one, run_with_threads(8));
}

TEST(Snapshot, RecordingIntoExistingEntriesNeverAllocates) {
  // Inserting a name may allocate; recording into an entry that exists
  // must not: HistogramSnapshot::record, and add_counter / set_gauge on a
  // present name (names longer than the small-string buffer, so a copy
  // would show).
  const std::string counter = "sim.counter.with.a.long.metric.name";
  const std::string gauge = "sim.gauge.with.a.long.metric.name";
  MetricsSnapshot s;
  s.add_counter(counter, 0);
  s.set_gauge(gauge, 0.0);
  HistogramSnapshot h("h", rem::obs::handover_latency_buckets_s());
  constexpr int kCalls = 10000;
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < kCalls; ++i) {
    s.add_counter(counter, 1);
    s.set_gauge(gauge, 0.001 * i);
    h.record(0.001 * i);
  }
  const std::uint64_t after = g_allocs.load();
  EXPECT_EQ(before, after) << "recording allocated";
  EXPECT_EQ(s.find_counter(counter)->value,
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(s.find_gauge(gauge)->value, 0.001 * (kCalls - 1));
  EXPECT_EQ(h.total_count(), static_cast<std::uint64_t>(kCalls));
}

TEST(SpanTracer, RecordingAfterConstructionNeverAllocates) {
  // The tracer builds its span histograms at construction, so every
  // sample (prep RTT, BS queue wait, out-of-sync episodes) records
  // without building a name or copying the buckets, the first included.
  rem::obs::SpanTracer tracer;
  rem::sim::SignalingEvent ack{.kind = rem::sim::EventKind::kPrepAck,
                               .serving_snr_db = 0.004};
  rem::sim::SignalingEvent job{.kind = rem::sim::EventKind::kBsJobDone,
                               .serving_snr_db = 0.002};
  rem::sim::TickView tick;
  const auto step = [&](int i) {
    ack.t_s = job.t_s = tick.t_s = 0.01 * i;
    tracer.on_event(ack);
    tracer.on_event(job);
    tick.t310_running = i % 2 == 0;  // an episode opens and closes
    tracer.on_tick(tick);
  };
  constexpr int kCalls = 10000;
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < kCalls; ++i) step(i);
  const std::uint64_t after = g_allocs.load();
  EXPECT_EQ(before, after) << "recording allocated";
  rem::sim::SimStats stats;
  tracer.on_run_end(stats);
  // Only the three histograms that received samples are published.
  const MetricsSnapshot& snap = tracer.metrics();
  ASSERT_EQ(snap.histograms.size(), 3u);
  for (const auto* name :
       {"sim.backhaul.prep_rtt_s", "sim.bs.queue_wait_s", "sim.out_of_sync_s"})
    ASSERT_NE(snap.find_histogram(name), nullptr) << name;
  EXPECT_EQ(snap.find_histogram("sim.backhaul.prep_rtt_s")->total_count(),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(snap.find_histogram("sim.out_of_sync_s")->total_count(),
            static_cast<std::uint64_t>(kCalls / 2));
}

TEST(Buckets, CanonicalLayoutsAreValid) {
  for (const auto* edges :
       {&rem::obs::handover_latency_buckets_s(),
        &rem::obs::outage_duration_buckets_s(),
        &rem::obs::out_of_sync_buckets_s(),
        &rem::obs::backhaul_rtt_buckets_s(),
        &rem::obs::bs_queue_wait_buckets_s()}) {
    ASSERT_FALSE(edges->empty());
    for (std::size_t i = 1; i < edges->size(); ++i)
      EXPECT_LT((*edges)[i - 1], (*edges)[i]);
  }
}

}  // namespace
