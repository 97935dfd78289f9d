// Shared helper for the table/figure benches: build a scenario, run both
// managers over several seeds, aggregate statistics.
//
// Seeds are independent by construction — every stochastic component draws
// from common::Rng(seed) forks — so `run_route_parallel` farms one seed per
// thread-pool job and then merges the per-seed results *in seed order*. The
// serial and parallel paths share run_seed() and merge_seed_results(), so
// their output is bit-identical for the same seed list regardless of thread
// count.
#pragma once

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "mobility/conflict.hpp"
#include "net/backhaul.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "phy/bler_model.hpp"
#include "sim/fleet.hpp"
#include "sim/observer.hpp"
#include "testkit/invariants.hpp"
#include "testkit/seeds.hpp"
#include "trace/scenario.hpp"

#include <cstdint>
#include <cstdlib>
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
  /// Static two-cell conflicts of the synthesized legacy policy set
  /// (aggregated over seeds).
  std::map<std::string, int> conflict_histogram;
  int total_conflicts = 0;
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
  std::map<std::string, int> conflict_histogram;
  int total_conflicts = 0;
  /// This seed's metrics per manager (empty unless
  /// SeedRunOptions::collect_metrics was set).
  obs::MetricsSnapshot legacy_metrics;
  obs::MetricsSnapshot rem_metrics;
};

/// Per-seed run knobs beyond the scenario itself.
struct SeedRunOptions {
  sim::FaultConfig faults;    ///< applied to both managers' simulations
  bool record_events = false; ///< keep the full SimStats::events log
  /// Attach a rem::testkit::InvariantChecker to every simulation and
  /// throw std::logic_error (with the checker's report) on any violation.
  /// Defaults ON so all benches and tests run machine-checked; the
  /// REM_CHECK_INVARIANTS=0 environment variable is a global kill switch.
  bool check_invariants = true;
  /// Attach a rem::obs::SpanTracer recording into a per-run Registry,
  /// cross-check it against SimStats (throwing std::logic_error on any
  /// reconcile mismatch), and return the snapshot in SeedRunResult.
  /// Defaults to the REM_METRICS environment knob. Only simulated-time
  /// metrics are recorded here, so results stay deterministic.
  bool collect_metrics = obs::metrics_enabled();
  /// When set, replaces the scenario's backhaul transport config (latency
  /// distribution, loss/reorder/duplicate probabilities, or disabling the
  /// transport entirely) for both managers' simulations.
  std::optional<net::BackhaulConfig> backhaul;
  /// When set, replaces the scenario's per-BS capacity model config
  /// (slots, queue bound, service times, admission control) for both
  /// managers' simulations.
  std::optional<sim::BsCapacityConfig> bs_capacity;
};

/// Simulate a single seed (legacy manager, and REM when `run_rem`).
/// Thread-safe: all state derives from the seed; `bler` is read-only.
/// `opts.faults` is applied to both managers' simulations; the schedule
/// itself is seeded from the per-seed Rng, so runs stay bit-identical for
/// the same (seed, faults) pair. The invariant checker (opts) observes
/// each run without drawing randomness, so attaching it never changes
/// results.
inline SeedRunResult run_seed(trace::Route route, double speed_kmh,
                              double duration_s, std::uint64_t seed,
                              bool run_rem, const phy::BlerModel& bler,
                              const SeedRunOptions& opts) {
  SeedRunResult out;
  auto sc = trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.faults = opts.faults;
  sc.sim.record_events = sc.sim.record_events || opts.record_events;
  if (opts.backhaul) sc.sim.backhaul = *opts.backhaul;
  if (opts.bs_capacity) sc.sim.bs_capacity = *opts.bs_capacity;
  const bool check = opts.check_invariants && testkit::invariants_enabled();
  common::Rng rng(seed);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  sim::RadioEnv env(cells, sc.propagation, rng.fork(), holes);
  auto policies = trace::synthesize_policies(cells, sc.policy_mix, rng);

  // Exact pairwise conflict predicate for loop attribution, restricted
  // to cells that actually cover common ground.
  const auto pcs = trace::to_policy_cells(cells, policies);
  const double reach = 2.0 * sc.deployment.site_spacing_mean_m;
  const auto neighbor_filter = [&](std::size_t i, std::size_t j) {
    return std::abs(cells[i].site_pos_m - cells[j].site_pos_m) <= reach;
  };
  const auto conflicts =
      mobility::find_two_cell_conflicts(pcs, {}, neighbor_filter);
  out.total_conflicts = static_cast<int>(conflicts.size());
  for (const auto& [label, n] : mobility::conflict_histogram(conflicts))
    out.conflict_histogram[label] += n;
  std::set<std::pair<int, int>> pairs;
  for (const auto& c : conflicts) {
    pairs.insert({c.cell_i, c.cell_j});
    pairs.insert({c.cell_j, c.cell_i});
  }
  const auto pair_fn = [&pairs](int a, int b) {
    return pairs.count({a, b}) > 0;
  };

  // Observation: one fanout per simulation hosting the invariant checker
  // and/or the span tracer, both attached via SimConfig::observer. Neither
  // draws randomness, and the RNG fork order below is identical whatever
  // is attached, so observed and bare paths produce bit-identical
  // statistics. A checker violation or a tracer/stats reconcile mismatch
  // is a simulator (or tracer) bug, not a statistical outcome, so either
  // aborts the run loudly instead of skewing aggregates.
  const bool collect = opts.collect_metrics;
  const auto run_context = [&](const std::string& who) {
    return who + " run (route " + trace::route_name(route) + ", " +
           std::to_string(speed_kmh) + " km/h, seed " +
           std::to_string(seed) + ")";
  };
  const auto run_observed = [&](sim::MobilityManager& m, common::Rng run_rng,
                                const std::function<bool(int, int)>& pf,
                                testkit::CheckerConfig ccfg,
                                obs::MetricsSnapshot* metrics_out) {
    if (!check && !collect) {
      sim::Simulator s(env, sc.sim, bler, std::move(run_rng));
      return s.run(m, pf);
    }
    testkit::InvariantChecker checker(std::move(ccfg));
    obs::Registry registry;
    obs::SpanTracer tracer(&registry);
    sim::ObserverFanout fanout;
    if (check) fanout.add(&checker);
    if (collect) fanout.add(&tracer);
    sim::SimConfig observed = sc.sim;
    observed.observer = &fanout;
    sim::Simulator s(env, observed, bler, std::move(run_rng));
    auto stats = s.run(m, pf);
    if (check && checker.violation_count() > 0)
      throw std::logic_error("invariant violations in " +
                             run_context(m.name()) + ":\n" +
                             checker.report());
    if (collect) {
      const auto mismatches = tracer.reconcile(stats);
      if (!mismatches.empty()) {
        std::string msg =
            "trace/stats reconcile mismatches in " + run_context(m.name());
        for (const auto& line : mismatches) msg += "\n  " + line;
        throw std::logic_error(msg);
      }
      if (metrics_out != nullptr) *metrics_out = registry.snapshot();
    }
    return stats;
  };
  testkit::CheckerConfig base;
  base.sim = sc.sim;
  base.num_cells = cells.size();
  base.faults_expected = !opts.faults.empty();

  core::LegacyConfig lc;
  lc.policies = policies;
  lc.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  lc.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;
  core::LegacyManager legacy(lc);
  testkit::CheckerConfig legacy_cfg = base;
  legacy_cfg.expect_no_degraded = true;  // legacy has no fallback mode
  out.legacy = run_observed(legacy, rng.fork(), pair_fn, legacy_cfg,
                            &out.legacy_metrics);

  if (run_rem) {
    core::RemManager remm(core::RemConfig{}, rng.fork());
    testkit::CheckerConfig rem_cfg = base;
    rem_cfg.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
    // REM's coordinated policy is conflict-free by Theorem 2.
    out.rem = run_observed(remm, rng.fork(), [](int, int) { return false; },
                           rem_cfg, &out.rem_metrics);
    out.has_rem = true;
  }
  return out;
}

/// Back-compat overload: bare fault schedule, events off, checker on.
inline SeedRunResult run_seed(trace::Route route, double speed_kmh,
                              double duration_s, std::uint64_t seed,
                              bool run_rem, const phy::BlerModel& bler,
                              const sim::FaultConfig& faults = {}) {
  SeedRunOptions opts;
  opts.faults = faults;
  return run_seed(route, speed_kmh, duration_s, seed, run_rem, bler, opts);
}

/// Fold per-seed results in the order given. Seed order — not completion
/// order — fixes every floating-point accumulation, which is what makes the
/// parallel runner's output independent of thread count.
inline ScenarioRun merge_seed_results(const std::vector<SeedRunResult>& rs) {
  ScenarioRun out;
  for (const auto& r : rs) {
    out.total_conflicts += r.total_conflicts;
    for (const auto& [label, n] : r.conflict_histogram)
      out.conflict_histogram[label] += n;
    out.legacy.add(r.legacy);
    if (r.has_rem) out.rem.add(r.rem);
    out.legacy_metrics.merge(r.legacy_metrics);
    if (r.has_rem) out.rem_metrics.merge(r.rem_metrics);
  }
  return out;
}

inline ScenarioRun run_route(trace::Route route, double speed_kmh,
                             double duration_s,
                             const std::vector<std::uint64_t>& seeds,
                             bool run_rem, const SeedRunOptions& opts) {
  phy::LogisticBlerModel bler;
  std::vector<SeedRunResult> rs;
  rs.reserve(seeds.size());
  for (const auto seed : seeds)
    rs.push_back(
        run_seed(route, speed_kmh, duration_s, seed, run_rem, bler, opts));
  return merge_seed_results(rs);
}

inline ScenarioRun run_route(trace::Route route, double speed_kmh,
                             double duration_s,
                             const std::vector<std::uint64_t>& seeds,
                             bool run_rem = true,
                             const sim::FaultConfig& faults = {}) {
  SeedRunOptions opts;
  opts.faults = faults;
  return run_route(route, speed_kmh, duration_s, seeds, run_rem, opts);
}

/// Worker count for parallel benches: the REM_BENCH_THREADS environment
/// variable when set (>= 1), otherwise the hardware thread count.
inline std::size_t bench_threads() {
  if (const char* env = std::getenv("REM_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return common::ThreadPool::default_threads();
}

/// Seed-parallel run_route: each seed's legacy+REM simulation runs as one
/// thread-pool job; results merge in seed order, so the output is
/// bit-identical to run_route() for any num_threads. num_threads == 0 reads
/// REM_BENCH_THREADS / hardware concurrency via bench_threads().
inline ScenarioRun run_route_parallel(trace::Route route, double speed_kmh,
                                      double duration_s,
                                      const std::vector<std::uint64_t>& seeds,
                                      bool run_rem, std::size_t num_threads,
                                      const SeedRunOptions& opts) {
  if (num_threads == 0) num_threads = bench_threads();
  phy::LogisticBlerModel bler;
  std::vector<SeedRunResult> rs(seeds.size());
  common::parallel_for(seeds.size(), num_threads, [&](std::size_t i) {
    rs[i] = run_seed(route, speed_kmh, duration_s, seeds[i], run_rem, bler,
                     opts);
  });
  return merge_seed_results(rs);
}

inline ScenarioRun run_route_parallel(trace::Route route, double speed_kmh,
                                      double duration_s,
                                      const std::vector<std::uint64_t>& seeds,
                                      bool run_rem = true,
                                      std::size_t num_threads = 0,
                                      const sim::FaultConfig& faults = {}) {
  SeedRunOptions opts;
  opts.faults = faults;
  return run_route_parallel(route, speed_kmh, duration_s, seeds, run_rem,
                            num_threads, opts);
}

inline double pct(double x) { return 100.0 * x; }

/// "a x" reduction factor epsilon = (legacy - rem) / rem, as the paper
/// defines it; returns -1 when rem is zero (infinite reduction).
inline double reduction_factor(double legacy, double rem) {
  if (rem <= 0.0) return -1.0;
  return (legacy - rem) / rem;
}

}  // namespace rem::bench
