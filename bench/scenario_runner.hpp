// Shared helper for the table/figure benches: run both managers over a
// scenario for several seeds, aggregate statistics.
//
// Seeds are independent by construction — every stochastic component draws
// from common::Rng(seed) forks — so `run_route` hands one seed per index
// to parallel_for and then merges the per-seed results *in seed order*.
// Every thread count shares run_seed() and merge_seed_results(), so the
// output is bit-identical for the same seed list regardless of thread
// count.
#pragma once

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "mobility/conflict.hpp"
#include "obs/tracer.hpp"
#include "phy/bler_model.hpp"
#include "sim/fleet.hpp"
#include "sim/observer.hpp"
#include "testkit/invariants.hpp"
#include "testkit/seeds.hpp"
#include "trace/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace rem::bench {

/// Statistics of independent runs (seeds) folded in the order added.
/// `total` holds every stats-table counter summed over the runs and the
/// concatenated samples (sim::accumulate_run_stats); the per-run means
/// and the feedback delays also keep their sample distributions.
struct AggregateStats {
  sim::SimStats total;
  common::Summary handover_interval_s;  ///< runs with >= 2 handovers
  common::Summary feedback_delay_s;
  common::Summary throughput_bps;
  common::Summary downtime_fraction;

  void add(const sim::SimStats& s) {
    sim::accumulate_run_stats(total, s);
    throughput_bps.add(s.mean_throughput_bps);
    downtime_fraction.add(s.downtime_fraction);
    if (s.avg_handover_interval_s > 0)
      handover_interval_s.add(s.avg_handover_interval_s);
    feedback_delay_s.add_all(s.feedback_delays_s);
  }

  double failure_ratio() const { return total.failure_ratio(); }
  double cause_ratio(sim::FailureCause c) const {
    const int den = total.handovers + total.failures;
    const auto it = total.failures_by_cause.find(c);
    return den > 0 && it != total.failures_by_cause.end()
               ? static_cast<double>(it->second) / den
               : 0.0;
  }
  double failure_ratio_excluding_holes() const {
    return failure_ratio() - cause_ratio(sim::FailureCause::kCoverageHole);
  }
};

struct ScenarioRun {
  AggregateStats legacy;
  AggregateStats rem;
  /// Per-manager metrics merged in seed order (empty unless
  /// SeedRunOptions::collect_metrics). Simulated-time metrics only, so the
  /// merged snapshots are bit-identical for any worker-thread count.
  obs::MetricsSnapshot legacy_metrics;
  obs::MetricsSnapshot rem_metrics;
};

/// Everything one seed contributes to a ScenarioRun, kept separate so seeds
/// can run on any thread and be merged deterministically afterwards.
struct SeedRunResult {
  sim::SimStats legacy;
  sim::SimStats rem;
  bool has_rem = false;
  /// Static two-cell conflicts of the seed's synthesized legacy policy set.
  int total_conflicts = 0;
  /// This seed's metrics and spans per manager (empty unless
  /// SeedRunOptions::collect_metrics was set).
  obs::MetricsSnapshot legacy_metrics;
  obs::MetricsSnapshot rem_metrics;
  std::vector<obs::Span> legacy_spans;
  std::vector<obs::Span> rem_spans;
};

/// Per-seed run knobs beyond the scenario itself.
struct SeedRunOptions {
  /// Attach a rem::obs::SpanTracer to every run, cross-check it against
  /// SimStats (throwing std::logic_error on any reconcile mismatch), and
  /// return its metrics snapshot and spans in SeedRunResult. Only
  /// simulated-time metrics are recorded here, so results stay
  /// deterministic.
  bool collect_metrics = false;
};

/// Simulate one seed of a fully specified scenario: the legacy manager,
/// and REM when `run_rem`. `sc.sim` carries everything the runs share
/// (faults, transports, event recording); the fault schedule itself is
/// seeded from the per-seed Rng, so runs are bit-identical for the same
/// (scenario, seed). Thread-safe: all state derives from the seed; `bler`
/// is read-only.
///
/// Every simulation runs under a rem::testkit::InvariantChecker, and a
/// violation throws std::logic_error with the checker's report: it is a
/// simulator bug, not a statistical outcome. The checker (and the tracer,
/// when collecting metrics) draws no randomness, so attaching it never
/// changes results.
inline SeedRunResult run_seed(const trace::Scenario& sc, std::uint64_t seed,
                              bool run_rem, const phy::BlerModel& bler,
                              const SeedRunOptions& opts = {}) {
  SeedRunResult out;
  common::Rng rng(seed);
  const auto world = trace::make_world(sc, rng);
  const auto& cells = world.env.cells();

  // Exact pairwise conflict predicate for loop attribution, restricted
  // to cells that actually cover common ground.
  const auto pcs = trace::to_policy_cells(cells, world.legacy.policies);
  const double reach = 2.0 * sc.deployment.site_spacing_mean_m;
  const auto neighbor_filter = [&](std::size_t i, std::size_t j) {
    return std::abs(cells[i].site_pos_m - cells[j].site_pos_m) <= reach;
  };
  const auto conflicts =
      mobility::find_two_cell_conflicts(pcs, neighbor_filter);
  out.total_conflicts = static_cast<int>(conflicts.size());
  std::set<std::pair<int, int>> pairs;
  for (const auto& c : conflicts) {
    pairs.insert({c.cell_i, c.cell_j});
    pairs.insert({c.cell_j, c.cell_i});
  }
  const auto pair_fn = [&pairs](int a, int b) {
    return pairs.count({a, b}) > 0;
  };

  // Observation: one fanout per simulation hosting the invariant checker
  // and, when collecting metrics, the span tracer. A tracer/stats
  // reconcile mismatch is a tracer bug and aborts the run loudly too.
  const auto run_context = [&](const std::string& who) {
    return who + " run (route " + trace::route_name(sc.route) + ", " +
           std::to_string(sc.speed_kmh) + " km/h, seed " +
           std::to_string(seed) + ")";
  };
  const auto run_observed = [&](sim::MobilityManager& m, common::Rng run_rng,
                                const std::function<bool(int, int)>& pf,
                                testkit::CheckerConfig ccfg,
                                obs::MetricsSnapshot& metrics_out,
                                std::vector<obs::Span>& spans_out) {
    testkit::InvariantChecker checker(std::move(ccfg));
    std::optional<obs::SpanTracer> tracer;
    sim::ObserverFanout fanout;
    fanout.add(&checker);
    if (opts.collect_metrics) fanout.add(&tracer.emplace());
    sim::SimConfig observed = sc.sim;
    observed.observer = &fanout;
    sim::Simulator s(world.env, observed, bler, std::move(run_rng));
    auto stats = s.run(m, pf);
    if (checker.violation_count() > 0)
      throw std::logic_error("invariant violations in " +
                             run_context(m.name()) + ":\n" +
                             checker.report());
    if (tracer) {
      const auto mismatches = tracer->reconcile(stats);
      if (!mismatches.empty()) {
        std::string msg =
            "trace/stats reconcile mismatches in " + run_context(m.name());
        for (const auto& line : mismatches) msg += "\n  " + line;
        throw std::logic_error(msg);
      }
      metrics_out = tracer->metrics();
      spans_out = tracer->spans();
    }
    return stats;
  };
  testkit::CheckerConfig base;
  base.sim = sc.sim;
  base.num_cells = cells.size();
  base.faults_expected = !sc.sim.faults.empty();

  core::LegacyManager legacy(world.legacy);
  testkit::CheckerConfig legacy_cfg = base;
  legacy_cfg.expect_no_degraded = true;  // legacy has no fallback mode
  out.legacy = run_observed(legacy, rng.fork(), pair_fn, legacy_cfg,
                            out.legacy_metrics, out.legacy_spans);

  if (run_rem) {
    core::RemManager remm(core::RemConfig{}, rng.fork());
    testkit::CheckerConfig rem_cfg = base;
    rem_cfg.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
    // REM's coordinated policy is conflict-free by Theorem 2.
    out.rem = run_observed(remm, rng.fork(), [](int, int) { return false; },
                           rem_cfg, out.rem_metrics, out.rem_spans);
    out.has_rem = true;
  }
  return out;
}

/// Fold per-seed results in the order given. Seed order — not completion
/// order — fixes every floating-point accumulation, which is what makes
/// run_route's output independent of thread count.
inline ScenarioRun merge_seed_results(const std::vector<SeedRunResult>& rs) {
  ScenarioRun out;
  for (const auto& r : rs) {
    out.legacy.add(r.legacy);
    if (r.has_rem) out.rem.add(r.rem);
    out.legacy_metrics.merge(r.legacy_metrics);
    if (r.has_rem) out.rem_metrics.merge(r.rem_metrics);
  }
  return out;
}

/// run_seed over `seeds`, one parallel_for index per seed on up to `threads`
/// workers (1 runs parallel_for's plain serial loop; pass
/// testkit::bench_threads() to honour REM_BENCH_THREADS). Results merge in
/// seed order, so the output is bit-identical for any thread count.
inline ScenarioRun run_route(const trace::Scenario& sc,
                             const std::vector<std::uint64_t>& seeds,
                             bool run_rem = true, std::size_t threads = 1,
                             const SeedRunOptions& opts = {}) {
  phy::LogisticBlerModel bler;
  std::vector<SeedRunResult> rs(seeds.size());
  common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
    rs[i] = run_seed(sc, seeds[i], run_rem, bler, opts);
  });
  return merge_seed_results(rs);
}

inline double pct(double x) { return 100.0 * x; }

/// "a x" reduction factor epsilon = (legacy - rem) / rem, as the paper
/// defines it; returns -1 when rem is zero (infinite reduction).
inline double reduction_factor(double legacy, double rem) {
  if (rem <= 0.0) return -1.0;
  return (legacy - rem) / rem;
}

}  // namespace rem::bench
