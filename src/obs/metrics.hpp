// Observability metrics (OBSERVABILITY.md documents every metric name,
// unit, and bucket layout this repo records).
//
// Metrics are plain values: a MetricsSnapshot holds name-sorted counters,
// gauges and fixed-bucket histograms, and every producer (the span
// tracer, a bench) fills one it owns on one thread. Recording into an
// entry that already exists (HistogramSnapshot::record, add_counter or
// set_gauge on a present name) never allocates.
//
// Determinism: every value recorded here comes from simulated time (event
// timestamps, tick counts), so it is bit-identical run to run. Per-seed
// snapshots merged in seed order (bench::merge_seed_results) are
// independent of worker-thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rem::obs {

/// A monotonic event count (merge adds).
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// A last-written scalar such as a high-water mark. Merges take the
/// maximum, so gauges should record quantities where "worst seen" is the
/// meaningful aggregate.
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Fixed-bucket histogram: `edges` are ascending upper bounds; a sample v
/// lands in the first bucket with v <= edges[i], or the final overflow
/// bucket when v exceeds every edge (counts.size() == edges.size()+1).
/// Edges are fixed at construction so histograms of the same metric
/// always merge bucket-by-bucket.
struct HistogramSnapshot {
  /// Empty buckets over `edges`. Throws std::invalid_argument when the
  /// edges are empty or not strictly ascending.
  HistogramSnapshot(std::string name, std::vector<double> edges);

  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< edges.size()+1 (overflow last)
  double sum = 0.0;

  /// Count `v` in its bucket and add it to the sum; NaN lands in the
  /// overflow bucket. Never allocates.
  void record(double v) noexcept;

  std::uint64_t total_count() const;
  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// containing bucket; the overflow bucket reports its lower edge.
  /// Returns 0 for an empty histogram.
  double quantile(double q) const;
};

/// One run's (or one merged set of runs') metrics, name-sorted per
/// section: the unit of recording, of merging (seed order) and of JSON
/// serialization. Two snapshots that recorded the same values compare and
/// serialize identically whatever order the names were first written in.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Get-or-insert: add `n` to counter `name` (a new counter starts at 0).
  void add_counter(const std::string& name, std::uint64_t n);
  /// Get-or-insert: overwrite gauge `name` with `v`.
  void set_gauge(const std::string& name, double v);

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

/// Canonical bucket layouts (documented in OBSERVABILITY.md). Stable
/// across runs and threads so per-run histograms always merge.
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
/// for a metric name that holds a newline.
void write_metrics_json(const MetricsSnapshot& snap, std::ostream& os);
MetricsSnapshot read_metrics_json(std::istream& is);
MetricsSnapshot read_metrics_json_file(const std::string& path);
void write_metrics_json_file(const MetricsSnapshot& snap,
                             const std::string& path);

}  // namespace rem::obs
