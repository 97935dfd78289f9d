// End-to-end tests for the span tracer and the scenario runner's metrics
// plumbing: a chaos-mode simulation ("mixed" golden fault preset) must
// yield a span trace and metrics snapshot that exactly reconcile with the
// simulator's own SimStats; the metrics/trace artifacts must round-trip;
// and seed-parallel metrics collection must be bit-identical across
// worker-thread counts.
#include "obs/tracer.hpp"
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

constexpr double kDuration = 120.0;
constexpr double kSpeed = 300.0;
const auto kRoute = rem::trace::Route::kBeijingShanghai;

/// kRoute at kSpeed for `duration_s` under the "mixed" golden fault preset.
rem::trace::Scenario chaos_scenario(double duration_s = kDuration) {
  auto sc = rem::trace::make_scenario(kRoute, kSpeed, duration_s);
  sc.sim.faults = rem::testkit::golden_fault_preset("mixed", duration_s);
  return sc;
}

// Run one chaos seed with an explicit tracer attached (independent of the
// runner plumbing) so the test can inspect spans directly.
struct TracedRun {
  rem::sim::SimStats stats;
  rem::obs::MetricsSnapshot metrics;
  std::vector<rem::obs::Span> spans;
  std::vector<std::string> mismatches;
};

const rem::phy::BlerModel& bler_model() {
  static rem::phy::LogisticBlerModel bler;
  return bler;
}

/// One chaos seed's legacy run on make_world's world with `observer`
/// attached. The legacy manager runs the stock measurement timers, not
/// the route's TTTs.
rem::sim::SimStats run_chaos_legacy(std::uint64_t seed,
                                    rem::sim::SimObserver* observer) {
  auto sc = chaos_scenario();
  rem::common::Rng rng(seed);
  auto world = rem::trace::make_world(sc, rng);
  world.legacy.measurement = {};
  rem::core::LegacyManager legacy(world.legacy);
  sc.sim.observer = observer;
  rem::sim::Simulator s(world.env, sc.sim, bler_model(), rng.fork());
  return s.run(legacy);
}

TracedRun traced_chaos_run(std::uint64_t seed) {
  rem::obs::SpanTracer tracer;
  TracedRun out;
  out.stats = run_chaos_legacy(seed, &tracer);
  out.metrics = tracer.metrics();
  out.spans = tracer.spans();
  out.mismatches = tracer.reconcile(out.stats);
  return out;
}

TEST(SpanTracer, ChaosRunReconcilesWithSimStats) {
  const auto run = traced_chaos_run(3);
  EXPECT_TRUE(run.mismatches.empty())
      << "reconcile mismatches:\n" +
             [&] {
               std::string all;
               for (const auto& m : run.mismatches) all += "  " + m + "\n";
               return all;
             }();
  // The chaos preset must actually provoke handovers so the test bites.
  ASSERT_GT(run.stats.handovers, 0);

  // Handover-latency histogram count == successful handovers, exactly.
  const auto* latency = run.metrics.find_histogram("sim.handover_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->total_count(),
            static_cast<std::uint64_t>(run.stats.successful_handovers));

  // Per-cause failure counters sum to the stats' failure total.
  std::uint64_t cause_sum = 0;
  for (const auto& c : run.metrics.counters)
    if (c.name.rfind("sim.failure_cause.", 0) == 0) cause_sum += c.value;
  EXPECT_EQ(cause_sum, static_cast<std::uint64_t>(run.stats.failures));
  for (const auto& [cause, n] : run.stats.failures_by_cause) {
    const auto* c = run.metrics.find_counter(
        "sim.failure_cause." + rem::obs::failure_cause_slug(cause));
    ASSERT_NE(c, nullptr) << rem::obs::failure_cause_slug(cause);
    EXPECT_EQ(c->value, static_cast<std::uint64_t>(n));
  }

  // Counter cross-checks against SimStats fields.
  const auto counter = [&](const char* name) {
    const auto* c = run.metrics.find_counter(name);
    return c != nullptr ? c->value : 0u;
  };
  EXPECT_EQ(counter("sim.handover.attempts"),
            static_cast<std::uint64_t>(run.stats.handovers));
  EXPECT_EQ(counter("sim.handover.complete"),
            static_cast<std::uint64_t>(run.stats.successful_handovers));
  EXPECT_EQ(counter("sim.report.retransmits"),
            static_cast<std::uint64_t>(run.stats.report_retransmits));
  EXPECT_EQ(counter("sim.handover.t304_expiry"),
            static_cast<std::uint64_t>(run.stats.t304_expiries));
  EXPECT_EQ(counter("sim.command.duplicates"),
            static_cast<std::uint64_t>(run.stats.duplicate_commands));
  EXPECT_EQ(counter("sim.reestablished"),
            static_cast<std::uint64_t>(run.stats.outage_durations_s.size()));
}

TEST(SpanTracer, SpansAreWellFormed) {
  const auto run = traced_chaos_run(5);
  ASSERT_FALSE(run.spans.empty());
  std::uint64_t complete = 0;
  // Per phase name over the completed attempts: spans and duration sum.
  std::map<std::string, std::pair<std::uint64_t, double>> phase_totals;
  for (const auto& s : run.spans) {
    EXPECT_TRUE(s.kind == "handover" || s.kind == "outage") << s.kind;
    EXPECT_GE(s.end_s, s.start_s) << s.kind << " " << s.outcome;
    ASSERT_FALSE(s.phases.empty());
    EXPECT_EQ(s.phases.front().start_s, s.start_s);
    for (std::size_t i = 0; i < s.phases.size(); ++i) {
      EXPECT_GE(s.phases[i].end_s, s.phases[i].start_s);
      if (i > 0) {
        EXPECT_EQ(s.phases[i].start_s, s.phases[i - 1].end_s);
      }
    }
    if (s.kind == "handover") {
      EXPECT_GE(s.target, 0);
      if (s.outcome == "complete") {
        ++complete;
        // A completed attempt traversed measure -> decide -> prepare ->
        // execute (the prepare phase spans the backhaul HANDOVER
        // REQUEST/ACK handshake up to command delivery).
        ASSERT_EQ(s.phases.size(), 4u);
        EXPECT_EQ(s.phases[0].name, "measure");
        EXPECT_EQ(s.phases[1].name, "decide");
        EXPECT_EQ(s.phases[2].name, "prepare");
        EXPECT_EQ(s.phases[3].name, "execute");
        EXPECT_EQ(s.phases.back().end_s, s.end_s);
        for (const auto& p : s.phases) {
          auto& [n, sum] = phase_totals[p.name];
          ++n;
          sum += p.end_s - p.start_s;
        }
      }
    } else {
      EXPECT_TRUE(s.outcome == "reestablished" || s.outcome == "unfinished")
          << s.outcome;
    }
  }
  EXPECT_EQ(complete,
            static_cast<std::uint64_t>(run.stats.successful_handovers));
  // Each phase's durations land in that phase's histogram.
  ASSERT_EQ(phase_totals.size(), 4u);
  for (const auto& [name, total] : phase_totals) {
    const auto* h =
        run.metrics.find_histogram("sim.handover_phase." + name + "_s");
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->total_count(), total.first) << name;
    EXPECT_DOUBLE_EQ(h->sum, total.second) << name;
  }
}

TEST(SpanTracer, TraceJsonlHasOneObjectPerSpan) {
  const auto run = traced_chaos_run(3);
  // Re-run the same seed with a locally held tracer so its serializer can
  // be driven directly, with a context stamp on every line.
  rem::obs::SpanTracer tracer;
  std::ostringstream os;
  (void)run_chaos_legacy(3, &tracer);
  tracer.write_trace_jsonl(os, "\"seed\": \"3\"");

  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // A single-UE run announces UE 0, so its lines carry the id too.
    EXPECT_NE(line.find("\"seed\": \"3\", \"ue\": 0, "), std::string::npos);
    EXPECT_NE(line.find("\"outcome\": \""), std::string::npos);
  }
  EXPECT_EQ(lines, tracer.spans().size());
  EXPECT_EQ(lines, run.spans.size()) << "same seed, same span count";
}

TEST(SpanTracer, MetricsJsonRoundTripsThroughFile) {
  const auto run = traced_chaos_run(3);
  const std::string path = "test_obs_tracer_metrics.json";
  rem::obs::write_metrics_json_file(run.metrics, path);
  const auto back = rem::obs::read_metrics_json_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.counters.size(), run.metrics.counters.size());
  for (std::size_t i = 0; i < back.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, run.metrics.counters[i].name);
    EXPECT_EQ(back.counters[i].value, run.metrics.counters[i].value);
  }
  ASSERT_EQ(back.histograms.size(), run.metrics.histograms.size());
  for (std::size_t i = 0; i < back.histograms.size(); ++i) {
    EXPECT_EQ(back.histograms[i].counts, run.metrics.histograms[i].counts);
    EXPECT_EQ(back.histograms[i].sum, run.metrics.histograms[i].sum);
  }
}

// The runner merges per-seed snapshots in seed order, so the merged
// metrics must be byte-identical for 1, 2, and 8 worker threads.
TEST(ScenarioRunnerMetrics, ThreadCountInvariantSnapshots) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const rem::bench::SeedRunOptions opts{/*collect_metrics=*/true};
  const auto render = [&](std::size_t threads) {
    const auto run = rem::bench::run_route(chaos_scenario(), seeds, true,
                                           threads, opts);
    std::ostringstream legacy_os, rem_os;
    rem::obs::write_metrics_json(run.legacy_metrics, legacy_os);
    rem::obs::write_metrics_json(run.rem_metrics, rem_os);
    return legacy_os.str() + "\x1e" + rem_os.str();
  };
  const std::string one = render(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, render(2));
  EXPECT_EQ(one, render(8));
}

// collect_metrics must not perturb the simulation: aggregate statistics
// with metrics on equal those with metrics off.
TEST(ScenarioRunnerMetrics, CollectionDoesNotPerturbStats) {
  const std::vector<std::uint64_t> seeds = {7};
  const auto with = rem::bench::run_route(chaos_scenario(), seeds, true, 1,
                                          {/*collect_metrics=*/true});
  const auto without = rem::bench::run_route(chaos_scenario(), seeds, true, 1,
                                             {/*collect_metrics=*/false});
  EXPECT_EQ(rem::testkit::diff_stats(with.legacy.total, without.legacy.total),
            "");
  EXPECT_EQ(rem::testkit::diff_stats(with.rem.total, without.rem.total), "");
  EXPECT_TRUE(without.legacy_metrics.empty());
  EXPECT_FALSE(with.legacy_metrics.empty());
}

// ---- Fleet runs: per-UE tracing through sim::UeObserverDemux ----

TEST(SpanTracer, RejectsInterleavedUes) {
  // A tracer is a single-UE state machine; feeding it two UEs' streams
  // would silently interleave their spans. Repeats of the same id are the
  // demuxed-child protocol and must pass; a different id must throw.
  rem::obs::SpanTracer tracer;
  EXPECT_NO_THROW(tracer.on_ue(2));
  EXPECT_NO_THROW(tracer.on_ue(2));
  EXPECT_THROW(tracer.on_ue(3), std::logic_error);
}

TEST(SpanTracer, FleetDemuxedTracersReconcilePerUe) {
  // One tracer per UE behind the demux: each must reconcile against its
  // own UE's SimStats exactly, and every emitted trace line must carry
  // that UE's id. Fork order matches bench::run_fleet_scenario.
  constexpr int kFleet = 3;
  auto sc = chaos_scenario(40.0);
  sc.sim.fleet_size = kFleet;

  rem::common::Rng rng(9);
  const auto world = rem::trace::make_world(sc, rng);
  rem::common::Rng mgr_rng = rng.fork();

  rem::sim::UeObserverDemux demux;
  std::vector<std::unique_ptr<rem::obs::SpanTracer>> tracers;
  for (int k = 0; k < kFleet; ++k) {
    tracers.push_back(std::make_unique<rem::obs::SpanTracer>());
    demux.add(tracers.back().get());
  }
  sc.sim.observer = &demux;

  rem::sim::Simulator s(world.env, sc.sim, bler_model(), rng.fork());
  const auto r =
      s.run_fleet([&](int) -> std::unique_ptr<rem::sim::MobilityManager> {
        return std::make_unique<rem::core::RemManager>(rem::core::RemConfig{},
                                                       mgr_rng.fork());
      });
  ASSERT_EQ(r.per_ue.size(), static_cast<std::size_t>(kFleet));

  std::size_t total_spans = 0;
  for (int k = 0; k < kFleet; ++k) {
    SCOPED_TRACE("ue " + std::to_string(k));
    const auto& tracer = *tracers[static_cast<std::size_t>(k)];
    const auto mismatches =
        tracer.reconcile(r.per_ue[static_cast<std::size_t>(k)]);
    for (const auto& line : mismatches) ADD_FAILURE() << line;
    total_spans += tracer.spans().size();

    std::ostringstream os;
    tracer.write_trace_jsonl(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line))
      EXPECT_NE(line.find("\"ue\": " + std::to_string(k) + ","),
                std::string::npos)
          << line;
  }
  EXPECT_GT(total_spans, 0u);  // the run actually produced spans to label
}

}  // namespace
