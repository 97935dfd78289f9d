// rem_report: human-readable summary of the observability artifacts the
// benches emit — a rem-metrics-v1 snapshot (counters/gauges tables,
// ASCII-bar histograms with p50/p90/p99) and optionally a span trace
// (outcome counts per span kind). See OBSERVABILITY.md for the artifact
// formats and metric catalogue.
//
// Usage:
//   rem_report <metrics.json> [trace.jsonl]
//   rem_report --selftest     (round-trips a synthetic snapshot through a
//                              temp file and exercises the trace
//                              summarizer's accept/reject paths; wired
//                              into ctest as tier1)
//
// Malformed inputs — unreadable metrics JSON, or trace lines that are not
// one span object with a known kind and an outcome — exit non-zero with
// the offending file/line named on stderr.
#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace {

using rem::obs::HistogramSnapshot;
using rem::obs::MetricsSnapshot;

void print_histogram(const HistogramSnapshot& h) {
  const std::uint64_t total = h.total_count();
  std::printf("  %s  (%llu samples, sum %.6g)\n", h.name.c_str(),
              static_cast<unsigned long long>(total), h.sum);
  if (total == 0) return;
  const std::uint64_t peak =
      *std::max_element(h.counts.begin(), h.counts.end());
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    const int bar = peak > 0
                        ? static_cast<int>(40 * h.counts[i] / peak)
                        : 0;
    char label[64];
    if (i < h.edges.size())
      std::snprintf(label, sizeof(label), "<= %-10.4g", h.edges[i]);
    else
      std::snprintf(label, sizeof(label), " > %-10.4g", h.edges.back());
    std::printf("    %s %8llu |%.*s\n", label,
                static_cast<unsigned long long>(h.counts[i]), bar,
                "########################################");
  }
  std::printf("    p50 %.6g  p90 %.6g  p99 %.6g\n", h.quantile(0.50),
              h.quantile(0.90), h.quantile(0.99));
}

void print_snapshot(const MetricsSnapshot& snap) {
  if (!snap.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& c : snap.counters)
      std::printf("  %-42s %12llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
  }
  if (!snap.gauges.empty()) {
    std::printf("gauges:\n");
    for (const auto& g : snap.gauges)
      std::printf("  %-42s %12.6g\n", g.name.c_str(), g.value);
  }
  if (!snap.histograms.empty()) {
    std::printf("histograms:\n");
    for (const auto& h : snap.histograms) print_histogram(h);
  }
  if (snap.empty()) std::printf("(empty snapshot)\n");
}

// Minimal field scraper for our own trace emitter (one object per line,
// `"key": "value"` with a space after the colon).
std::string extract_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

int summarize_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "rem_report: cannot open %s\n", path.c_str());
    return 1;
  }
  // Each non-empty line must be one span object carrying a known kind and
  // a non-empty outcome; anything else is rejected with the offending line
  // rather than silently folded into a bogus "/" bucket.
  std::map<std::string, std::uint64_t> outcomes;
  std::uint64_t spans = 0;
  std::string line;
  std::uint64_t line_no = 0;
  const auto reject = [&](const char* why) {
    std::fprintf(stderr, "rem_report: %s line %llu: %s in '%.120s'\n",
                 path.c_str(), static_cast<unsigned long long>(line_no), why,
                 line.c_str());
    return 1;
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}')
      return reject("expected one JSON object per line");
    const std::string kind = extract_field(line, "kind");
    const std::string outcome = extract_field(line, "outcome");
    if (kind.empty()) return reject("missing or empty 'kind' field");
    if (kind != "handover" && kind != "outage")
      return reject("unknown span kind");
    if (outcome.empty()) return reject("missing or empty 'outcome' field");
    ++spans;
    ++outcomes[kind + "/" + outcome];
  }
  std::printf("trace: %llu spans (%s)\n",
              static_cast<unsigned long long>(spans), path.c_str());
  for (const auto& [key, n] : outcomes)
    std::printf("  %-42s %12llu\n", key.c_str(),
                static_cast<unsigned long long>(n));
  return 0;
}

// Round-trip a synthetic snapshot through the JSON codec and re-summarize
// it, so ctest exercises the reader, the quantile math, and the printer
// without needing a prior bench run.
int selftest() {
  MetricsSnapshot snap;
  snap.add_counter("selftest.events", 42);
  snap.set_gauge("selftest.peak", 2.5);
  HistogramSnapshot h("selftest.latency_s",
                      rem::obs::handover_latency_buckets_s());
  for (int i = 1; i <= 100; ++i) h.record(0.01 * i);
  snap.histograms.push_back(std::move(h));

  const std::string path = "rem_report_selftest.json";
  rem::obs::write_metrics_json_file(snap, path);
  const auto back = rem::obs::read_metrics_json_file(path);
  std::remove(path.c_str());

  const auto* c = back.find_counter("selftest.events");
  const auto* g = back.find_gauge("selftest.peak");
  const auto* hist = back.find_histogram("selftest.latency_s");
  if (c == nullptr || c->value != 42 || g == nullptr || g->value != 2.5 ||
      hist == nullptr || hist->total_count() != 100 ||
      hist->sum != snap.histograms.front().sum) {
    std::fprintf(stderr, "rem_report --selftest: round trip mismatch\n");
    return 1;
  }
  const double p50 = hist->quantile(0.50);
  if (p50 < 0.3 || p50 > 0.7) {
    std::fprintf(stderr, "rem_report --selftest: implausible p50 %g\n", p50);
    return 1;
  }
  print_snapshot(back);

  // Trace summarizer: a well-formed trace summarizes cleanly, and each
  // malformed shape (bad framing, missing kind, unknown kind, missing
  // outcome) is rejected with a non-zero exit.
  const std::string trace_path = "rem_report_selftest_trace.jsonl";
  const auto write_trace = [&](const char* body) {
    std::ofstream os(trace_path);
    os << body;
  };
  write_trace(
      "{\"kind\": \"handover\", \"outcome\": \"complete\"}\n"
      "\n"
      "{\"kind\": \"outage\", \"outcome\": \"reestablished\"}\n");
  if (summarize_trace(trace_path) != 0) {
    std::fprintf(stderr,
                 "rem_report --selftest: valid trace was rejected\n");
    std::remove(trace_path.c_str());
    return 1;
  }
  const char* malformed[] = {
      "not json\n",
      "{\"outcome\": \"complete\"}\n",
      "{\"kind\": \"mystery\", \"outcome\": \"complete\"}\n",
      "{\"kind\": \"handover\"}\n",
  };
  for (const char* body : malformed) {
    write_trace(body);
    if (summarize_trace(trace_path) == 0) {
      std::fprintf(stderr,
                   "rem_report --selftest: malformed trace accepted: %s",
                   body);
      std::remove(trace_path.c_str());
      return 1;
    }
  }
  std::remove(trace_path.c_str());
  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--selftest") return selftest();
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: rem_report <metrics.json> [trace.jsonl]\n"
                 "       rem_report --selftest\n");
    return 2;
  }
  MetricsSnapshot snap;
  try {
    snap = rem::obs::read_metrics_json_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rem_report: %s\n", e.what());
    return 1;
  }
  std::printf("metrics: %s\n", argv[1]);
  print_snapshot(snap);
  if (argc == 3) return summarize_trace(argv[2]);
  return 0;
}
