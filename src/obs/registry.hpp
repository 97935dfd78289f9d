// Observability metrics registry (OBSERVABILITY.md documents every metric
// name, unit, and bucket layout this repo records).
//
// A Registry owns named instruments — monotonic Counters, last-value
// Gauges, fixed-bucket Histograms — with a strict hot-path/cold-path
// split: *registration* (name lookup) takes a mutex and may allocate,
// while *recording* (Counter::add, Gauge::set, Histogram::record) is a
// handful of relaxed atomic operations with no locks and no allocation.
// Hot call sites therefore register once and record through the returned
// stable pointer.
//
// Determinism: every value recorded here comes from simulated time (event
// timestamps, tick counts), so it is bit-identical run to run. Per-seed
// registries merged in seed order (bench::merge_seed_results) produce
// snapshots that are independent of worker-thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rem::obs {

/// Monotonically increasing event count.
///
/// Thread-safety: add/value are lock-free relaxed atomics; concurrent
/// adders never lose increments. Counters cannot decrease.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (e.g. a high-water mark). Snapshot merges take the
/// maximum of the two values, so gauges should record quantities where
/// "worst seen" is the meaningful aggregate.
///
/// Thread-safety: set/value are lock-free atomics; concurrent set calls
/// leave one of the written values (no tearing).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `edges` are ascending upper bounds; a sample v
/// lands in the first bucket with v <= edges[i], or the final overflow
/// bucket when v exceeds every edge (counts().size() == edges().size()+1).
/// Edges are fixed at registration so per-thread histograms of the same
/// metric always merge bucket-by-bucket.
///
/// Thread-safety: record() is lock-free (one relaxed fetch_add per sample
/// plus a CAS loop for the running sum); sum() under concurrent recording
/// is a racy-but-atomic read.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  /// Precondition: none (any finite double is accepted; NaN lands in the
  /// overflow bucket). Postcondition: exactly one bucket count and the
  /// running sum have grown.
  void record(double v) noexcept;

  const std::vector<double>& edges() const { return edges_; }
  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  /// Per-bucket counts, index-aligned with edges() plus the overflow slot.
  std::vector<std::uint64_t> counts() const;

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one registry, merge-able and JSON round-trippable.
/// Instruments are kept sorted by name, so two snapshots of registries
/// that recorded the same values compare (and serialize) identically
/// regardless of registration order.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
/// Frozen Gauge value (merge takes the max; see Gauge).
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
/// Frozen Histogram contents plus derived statistics (quantiles).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< edges.size()+1 (overflow last)
  double sum = 0.0;

  std::uint64_t total_count() const;
  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// containing bucket; the overflow bucket reports its lower edge.
  /// Returns 0 for an empty histogram.
  double quantile(double q) const;
};

/// One registry's instruments at a point in time, name-sorted per section;
/// the unit of merging (seed order) and of JSON serialization.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Union-by-name fold: counters and histogram buckets/sums add, gauges
  /// take the max. Throws std::invalid_argument when the same histogram
  /// name appears with different bucket edges. Merging in a fixed order
  /// (e.g. seed order) makes the result independent of thread count.
  void merge(const MetricsSnapshot& other);

  /// Lookup helpers; return nullptr when the name is absent.
  const CounterSnapshot* find_counter(const std::string& name) const;
  const GaugeSnapshot* find_gauge(const std::string& name) const;
  const HistogramSnapshot* find_histogram(const std::string& name) const;
};

/// Named-instrument registry. All getters are idempotent: the first call
/// with a name registers the instrument, later calls return the same
/// pointer, which is never null and stays valid for the registry's
/// lifetime.
///
/// Thread-safety: getters serialize on an internal mutex (which also makes
/// a Registry non-copyable); the returned instruments record lock-free.
/// snapshot() may run concurrently with recording and sees each
/// instrument's atomics individually.
class Registry {
 public:
  /// Get-or-register.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// Throws std::invalid_argument when `name` was already registered with
  /// different edges, or when edges are empty/not strictly ascending.
  Histogram* histogram(const std::string& name, std::vector<double> edges);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Canonical bucket layouts (documented in OBSERVABILITY.md). Stable
/// across runs and threads so per-thread histograms always merge.
const std::vector<double>& handover_latency_buckets_s();
const std::vector<double>& outage_duration_buckets_s();
const std::vector<double>& out_of_sync_buckets_s();
const std::vector<double>& backhaul_rtt_buckets_s();
const std::vector<double>& bs_queue_wait_buckets_s();

/// The rem-metrics-v1 format on the shared flat-JSON codec
/// (common/flat_json.hpp): keys `schema`, `counter.<name>`,
/// `gauge.<name>` and `hist.<name>.{edges,counts,sum}`, doubles as %.17g
/// (exact round trip, `nan` and `-inf` included). The reader rejects
/// malformed input with the offending line and content, histogram parts
/// included, rather than guessing; the writer throws std::invalid_argument
/// for an instrument name that holds a newline.
void write_metrics_json(const MetricsSnapshot& snap, std::ostream& os);
MetricsSnapshot read_metrics_json(std::istream& is);
MetricsSnapshot read_metrics_json_file(const std::string& path);
void write_metrics_json_file(const MetricsSnapshot& snap,
                             const std::string& path);

}  // namespace rem::obs
