// Unit tests for the rem::obs metrics registry: instrument semantics,
// histogram bucket edges, snapshot merge algebra, the flat-JSON codec's
// round trip and reject-with-context behavior, deterministic multi-thread
// merges, and the allocation-free recording path.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <thread>

namespace {

using rem::obs::Counter;
using rem::obs::Gauge;
using rem::obs::Histogram;
using rem::obs::MetricsSnapshot;
using rem::obs::Registry;

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(Counter, AddsMonotonically) {
  Registry r;
  auto* c = r.counter("c");
  EXPECT_EQ(c->value(), 0u);
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(r.counter("c"), c);
  EXPECT_EQ(r.counter("c")->value(), 42u);
}

TEST(Gauge, KeepsLastWrite) {
  Registry r;
  auto* g = r.gauge("g");
  g->set(1.5);
  g->set(-3.25);
  EXPECT_EQ(g->value(), -3.25);
}

TEST(Histogram, BucketEdgesAreUpperInclusive) {
  Registry r;
  auto* h = r.histogram("h", {1.0, 2.0, 4.0});
  // On-edge values land in the bucket they bound; above-all goes to
  // overflow.
  h->record(0.5);   // bucket 0
  h->record(1.0);   // bucket 0 (inclusive upper edge)
  h->record(1.001); // bucket 1
  h->record(4.0);   // bucket 2
  h->record(4.5);   // overflow
  h->record(-7.0);  // bucket 0 (below the first edge)
  const auto counts = h->counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.001 + 4.0 + 4.5 - 7.0);
}

TEST(Histogram, NanGoesToOverflow) {
  Registry r;
  auto* h = r.histogram("h", {1.0});
  h->record(std::numeric_limits<double>::quiet_NaN());
  const auto counts = h->counts();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Histogram, RejectsBadEdges) {
  Registry r;
  EXPECT_THROW(r.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(r.histogram("unsorted", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(r.histogram("dup", {1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, ReRegistrationMustMatchEdges) {
  Registry r;
  auto* h = r.histogram("h", {1.0, 2.0});
  EXPECT_EQ(r.histogram("h", {1.0, 2.0}), h);
  EXPECT_THROW(r.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(Snapshot, SortedByNameAndQueryable) {
  Registry r;
  r.counter("z")->add(1);
  r.counter("a")->add(2);
  r.gauge("g")->set(0.5);
  r.histogram("h", {1.0})->record(0.25);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[1].name, "z");
  ASSERT_NE(snap.find_counter("a"), nullptr);
  EXPECT_EQ(snap.find_counter("a")->value, 2u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_histogram("h"), nullptr);
  EXPECT_EQ(snap.find_histogram("h")->total_count(), 1u);
}

TEST(Snapshot, MergeAddsCountersMaxesGauges) {
  Registry r1, r2;
  r1.counter("shared")->add(2);
  r2.counter("shared")->add(3);
  r2.counter("only2")->add(7);
  r1.gauge("peak")->set(1.0);
  r2.gauge("peak")->set(4.0);
  r1.histogram("h", {1.0, 2.0})->record(0.5);
  r2.histogram("h", {1.0, 2.0})->record(1.5);

  auto a = r1.snapshot();
  a.merge(r2.snapshot());
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
  Registry r1, r2;
  r1.histogram("h", {1.0})->record(0.5);
  r2.histogram("h", {2.0})->record(0.5);
  auto a = r1.snapshot();
  EXPECT_THROW(a.merge(r2.snapshot()), std::invalid_argument);
}

TEST(Snapshot, QuantileInterpolatesWithinBucket) {
  Registry r;
  auto* h = r.histogram("h", {1.0, 2.0});
  for (int i = 0; i < 10; ++i) h->record(0.5);  // all in bucket [.., 1.0]
  const auto snap = r.snapshot();
  const auto* hs = snap.find_histogram("h");
  // Linear interpolation inside [0, 1]: median at ~0.5.
  EXPECT_NEAR(hs->quantile(0.5), 0.5, 0.11);
  EXPECT_EQ(hs->quantile(0.0), 0.0);
}

TEST(Codec, JsonRoundTripIsExact) {
  Registry r;
  r.counter("c.events")->add(123456789);
  r.gauge("g.peak")->set(0.1 + 0.2);  // not exactly representable: %.17g
  auto* h = r.histogram("h.lat", {0.1, 0.5, 1.0});
  h->record(0.05);
  h->record(0.3);
  h->record(99.0);
  const auto snap = r.snapshot();

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

TEST(Registry, MultiThreadRecordingMergesDeterministically) {
  // Simulate the seed-parallel runner: each "seed" gets its own registry
  // recording a seed-determined value stream; merging snapshots in seed
  // order must give bit-identical JSON no matter how many threads ran.
  const int kSeeds = 8;
  const auto run_with_threads = [&](int num_threads) {
    std::vector<MetricsSnapshot> per_seed(kSeeds);
    std::vector<std::thread> workers;
    std::atomic<int> next{0};
    for (int t = 0; t < num_threads; ++t)
      workers.emplace_back([&] {
        for (int s = next.fetch_add(1); s < kSeeds; s = next.fetch_add(1)) {
          Registry r;
          r.counter("events")->add(static_cast<std::uint64_t>(s) + 1);
          auto* h = r.histogram("vals", {1.0, 10.0, 100.0});
          for (int i = 0; i <= s; ++i) h->record(std::pow(3.0, s - i));
          r.gauge("peak")->set(static_cast<double>(s));
          per_seed[static_cast<std::size_t>(s)] = r.snapshot();
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

TEST(Registry, RecordingAfterRegistrationNeverAllocates) {
  // registry.hpp's hot/cold split: registration may allocate, recording
  // through the returned pointers must not.
  Registry r;
  auto* c = r.counter("c");
  auto* g = r.gauge("g");
  auto* h = r.histogram("h", rem::obs::handover_latency_buckets_s());
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);
  ASSERT_NE(h, nullptr);
  constexpr int kCalls = 10000;
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < kCalls; ++i) {
    c->add();
    g->set(0.001 * i);
    h->record(0.001 * i);
  }
  const std::uint64_t after = g_allocs.load();
  EXPECT_EQ(before, after) << "recording allocated";
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(g->value(), 0.001 * (kCalls - 1));
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kCalls));
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
