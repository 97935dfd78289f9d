#include "obs/registry.hpp"

#include "common/flat_json.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string_view>

namespace rem::obs {
namespace {

// Lock-free add for the histogram running sum (std::atomic<double>::
// fetch_add is C++20 but not reliably lowered on every toolchain; the CAS
// loop is portable and contention here is a few threads at most).
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

namespace fj = common::flat_json;

/// The comma-joined list form of histogram edges and counts.
template <typename T, typename Format>
std::string join(const std::vector<T>& vs, Format format) {
  std::string out;
  for (std::size_t i = 0; i < vs.size(); ++i)
    out += (i ? "," : "") + format(vs[i]);
  return out;
}

/// The inverse of join: every comma-separated item through `parse` (an
/// empty string is an empty list).
template <typename Parse>
auto split(const std::string& s, Parse parse) {
  std::vector<decltype(parse(s))> out;
  for (std::size_t at = 0; !s.empty() && at <= s.size();) {
    const std::size_t comma = std::min(s.find(',', at), s.size());
    out.push_back(parse(s.substr(at, comma - at)));
    at = comma + 1;
  }
  return out;
}

/// Why `edges` cannot bound a histogram, or "" when they can. Shared by
/// the Histogram constructor and the metrics reader.
std::string edges_error(const std::vector<double>& edges) {
  if (edges.empty()) return "empty bucket edges";
  for (std::size_t i = 1; i < edges.size(); ++i)
    if (!(edges[i - 1] < edges[i]))
      return "bucket edges not strictly ascending at index " +
             std::to_string(i) + " (" + fj::format_double(edges[i - 1]) +
             " vs " + fj::format_double(edges[i]) + ")";
  return "";
}

}  // namespace

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), counts_(edges_.size() + 1) {
  if (const std::string why = edges_error(edges_); !why.empty())
    throw std::invalid_argument("Histogram: " + why);
}

void Histogram::record(double v) noexcept {
  // First bucket whose upper edge admits v (v <= edge); NaN is explicitly
  // routed to the overflow bucket since it compares false with every edge.
  std::size_t idx;
  if (std::isnan(v)) {
    idx = edges_.size();
  } else {
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
    idx = static_cast<std::size_t>(it - edges_.begin());
  }
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t HistogramSnapshot::total_count() const {
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return total;
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t total = total_count();
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      if (i >= edges.size()) return edges.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : edges[i - 1];
      const double hi = edges[i];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cum += c;
  }
  return edges.back();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  const auto merge_sorted = [](auto& mine, const auto& theirs, auto combine) {
    for (const auto& t : theirs) {
      const auto it = std::lower_bound(
          mine.begin(), mine.end(), t,
          [](const auto& a, const auto& b) { return a.name < b.name; });
      if (it != mine.end() && it->name == t.name)
        combine(*it, t);
      else
        mine.insert(it, t);
    }
  };
  merge_sorted(counters, other.counters,
               [](CounterSnapshot& a, const CounterSnapshot& b) {
                 a.value += b.value;
               });
  merge_sorted(gauges, other.gauges,
               [](GaugeSnapshot& a, const GaugeSnapshot& b) {
                 a.value = std::max(a.value, b.value);
               });
  merge_sorted(histograms, other.histograms,
               [](HistogramSnapshot& a, const HistogramSnapshot& b) {
                 if (a.edges != b.edges)
                   throw std::invalid_argument(
                       "MetricsSnapshot::merge: histogram '" + a.name +
                       "' has mismatched bucket edges");
                 for (std::size_t i = 0; i < a.counts.size(); ++i)
                   a.counts[i] += b.counts[i];
                 a.sum += b.sum;
               });
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(
    const std::string& name) const {
  for (const auto& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

Counter* Registry::counter(const std::string& name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<double> edges) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(edges)))
             .first;
  } else if (it->second->edges() != edges) {
    throw std::invalid_argument(
        "Registry::histogram: '" + name +
        "' re-registered with different bucket edges");
  }
  return it->second.get();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    snap.histograms.push_back({name, h->edges(), h->counts(), h->sum()});
  return snap;  // std::map iteration order keeps everything name-sorted
}

Registry& global_registry() {
  static Registry registry(metrics_enabled());
  return registry;
}

bool metrics_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("REM_METRICS");
    return env != nullptr && std::string_view(env) == "1";
  }();
  return enabled;
}

const std::vector<double>& kernel_time_buckets_ns() {
  // ~1-2.5-5 decade ladder from 1 us to 100 ms: SFFT on a 12x14 signaling
  // subgrid sits near the bottom, a 1200x560 offline SVD near the top.
  static const std::vector<double> edges = {
      1e3,   2.5e3, 5e3,   1e4,   2.5e4, 5e4,   1e5,   2.5e5,
      5e5,   1e6,   2.5e6, 5e6,   1e7,   2.5e7, 5e7,   1e8};
  return edges;
}

const std::vector<double>& handover_latency_buckets_s() {
  // Trigger-to-complete span of one handover attempt. The paper's Fig. 2a
  // feedback delays (~0.2-1.5 s) plus decision and execution land here.
  static const std::vector<double> edges = {0.05, 0.1, 0.15, 0.2, 0.3,
                                            0.4,  0.5, 0.75, 1.0, 1.5,
                                            2.0,  3.0, 5.0};
  return edges;
}

const std::vector<double>& outage_duration_buckets_s() {
  // RLF-to-camp durations: 0.3 s prepared-target fallback and 0.8 s full
  // re-establishment are the configured floors; blackouts stretch the tail.
  static const std::vector<double> edges = {0.1, 0.2, 0.3, 0.5, 0.8, 1.0,
                                            1.5, 2.0, 3.0, 5.0, 10.0};
  return edges;
}

const std::vector<double>& backhaul_rtt_buckets_s() {
  // Preparation request->ack round trips over the inter-BS backhaul. The
  // default link (4 ms base + 2 ms jitter each way, 10 ms tick
  // quantization) lands near 10-30 ms; delay-spike faults and retries
  // stretch into the hundreds of milliseconds.
  static const std::vector<double> edges = {0.01,  0.02, 0.03, 0.05,
                                            0.075, 0.1,  0.15, 0.25,
                                            0.5,   1.0,  2.0};
  return edges;
}

const std::vector<double>& bs_queue_wait_buckets_s() {
  // Time a signaling job spends in a BS's bounded FIFO queue before a
  // processing slot frees up. Uncontended jobs wait 0 (first bucket);
  // overload windows (20 ms background jobs, inflated service times)
  // push waits toward tens to hundreds of milliseconds.
  static const std::vector<double> edges = {0.001, 0.002, 0.005, 0.01,
                                            0.02,  0.05,  0.1,   0.2,
                                            0.5,   1.0};
  return edges;
}

const std::vector<double>& out_of_sync_buckets_s() {
  // T310-armed episode lengths; the default T310 of 0.45 s caps episodes
  // that end in RLF, recoveries can be shorter or (with N311 churn) longer.
  static const std::vector<double> edges = {0.05, 0.1,  0.2, 0.3,
                                            0.45, 0.6,  1.0, 2.0};
  return edges;
}

void write_metrics_json(const MetricsSnapshot& snap, std::ostream& os) {
  std::vector<std::pair<std::string, std::string>> out = {
      {"schema", "rem-metrics-v1"}};
  for (const auto& c : snap.counters)
    out.emplace_back("counter." + c.name, std::to_string(c.value));
  for (const auto& g : snap.gauges)
    out.emplace_back("gauge." + g.name, fj::format_double(g.value));
  for (const auto& h : snap.histograms) {
    const std::string key = "hist." + h.name;
    out.emplace_back(key + ".edges", join(h.edges, fj::format_double));
    out.emplace_back(key + ".counts", join(h.counts, [](std::uint64_t c) {
                       return std::to_string(c);
                     }));
    out.emplace_back(key + ".sum", fj::format_double(h.sum));
  }
  fj::write(os, out);
}

MetricsSnapshot read_metrics_json(std::istream& is) {
  // Phase one is the shared flat-JSON reader; this interprets the keys and
  // names the offending line on any bad value.
  const std::string label = "metrics";
  const auto entries = fj::read(is, label);
  MetricsSnapshot snap;
  // Histograms arrive as three keys (edges, counts, sum); collect the
  // parts and assemble them at the end, each still reported at its own
  // line.
  constexpr std::string_view kHistParts[] = {"edges", "counts", "sum"};
  std::map<std::string, std::array<const fj::Entry*, 3>> hist_parts;
  bool have_schema = false;
  for (const auto& e : entries) {
    const std::string& key = e.key;
    if (key == "schema") {
      if (e.value != "rem-metrics-v1")
        fj::fail(label, e, "unsupported schema '" + e.value + "'");
      have_schema = true;
    } else if (key.rfind("counter.", 0) == 0) {
      snap.counters.push_back(
          {key.substr(8), fj::parse_at(label, e, fj::parse_u64)});
    } else if (key.rfind("gauge.", 0) == 0) {
      snap.gauges.push_back(
          {key.substr(6), fj::parse_at(label, e, fj::parse_double)});
    } else if (key.rfind("hist.", 0) == 0) {
      const std::string rest = key.substr(5);
      const std::size_t dot = rest.rfind('.');
      if (dot == std::string::npos)
        fj::fail(label, e,
                 "histogram key missing '.edges/.counts/.sum' suffix");
      const std::string part = rest.substr(dot + 1);
      const auto* it = std::find(std::begin(kHistParts),
                                 std::end(kHistParts), part);
      if (it == std::end(kHistParts))
        fj::fail(label, e, "unknown histogram part '" + part + "'");
      hist_parts[rest.substr(0, dot)][it - std::begin(kHistParts)] = &e;
    } else {
      fj::fail(label, e, "unknown key prefix for '" + key + "'");
    }
  }
  if (!have_schema)
    throw std::runtime_error("metrics JSON: missing the 'schema' key");
  const auto parse_list = [&](const fj::Entry& e, auto parse) {
    return fj::parse_at(label, e,
                        [&](const std::string& s) { return split(s, parse); });
  };
  for (const auto& [name, parts] : hist_parts) {
    const auto [edges, counts, sum] = parts;
    if (!edges || !counts || !sum)
      throw std::runtime_error("metrics JSON: histogram '" + name +
                               "' is missing edges, counts, or sum");
    HistogramSnapshot h;
    h.name = name;
    h.edges = parse_list(*edges, fj::parse_double);
    if (const std::string why = edges_error(h.edges); !why.empty())
      fj::fail(label, *edges, why);
    h.counts = parse_list(*counts, fj::parse_u64);
    if (h.counts.size() != h.edges.size() + 1)
      fj::fail(label, *counts,
               "histogram '" + name + "' has " +
                   std::to_string(h.counts.size()) + " counts for " +
                   std::to_string(h.edges.size()) + " edges (want edges+1)");
    h.sum = fj::parse_at(label, *sum, fj::parse_double);
    snap.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

MetricsSnapshot read_metrics_json_file(const std::string& path) {
  return common::flat_json::read_file("read_metrics_json_file", path,
                                      read_metrics_json);
}

void write_metrics_json_file(const MetricsSnapshot& snap,
                             const std::string& path) {
  common::flat_json::write_file(
      "write_metrics_json_file", path,
      [&](std::ostream& os) { write_metrics_json(snap, os); });
}

}  // namespace rem::obs
