// Chaos sweep: run REM and legacy management under each registered
// FaultInjector class — the radio classes (burst signaling loss, pilot
// outage, processing stall, coverage blackout, command duplication), a
// backhaul sweep (frame loss at 1/5/10%, one-way delay spikes, full
// partitions), and the BS robustness classes (control-plane overload,
// crash-restart) — and record per-fault recovery-time / failure-ratio /
// downtime deltas against the no-fault baseline into BENCH_CHAOS.json.
// The sweep doubles as the robustness acceptance check: every run must
// complete without exceptions or invariant violations, REM's
// degraded-mode fallback must be observable under a pilot outage, REM
// must ride out backhaul loss up to 10% and bounded delay spikes with
// zero handover failures (prep retries absorb them), partitions must
// degrade gracefully (fallbacks/failures observed, retry budgets
// respected, recovery bounded), and legacy must degrade measurably where
// REM does not. Under bs_overload the asymmetry inverts roles: legacy's
// network-side decision path queues and sheds (observable bs_queue_shed)
// while REM's client-side prediction keeps deciding, so REM's failure
// ratio stays within kMaxRemOverloadFailureRatio while legacy degrades by
// at least kMinLegacyOverloadDegradation over its baseline. Under
// bs_crash_restart every scripted window must actually kill a BS, and
// service recovery after each crash (first re-establishment or completed
// handover) must land within kMaxCrashRecoveryS — crash window plus
// post-restart re-attachment, the explicit recovery bound. A sweep whose
// class list does not cover every registered FaultKind fails: new kinds
// cannot ship without chaos coverage.
//
// Every single-UE run goes through bench::run_seed with metrics collection
// on, so the sweep additionally emits <output>_metrics.json (one
// rem-metrics-v1 snapshot merged over baseline + fault classes x seeds x
// managers, in that order — the sweep is serial, so the merge is
// deterministic) and <output>_trace.jsonl (one span per line, stamped with
// fault class, seed, and manager). run_seed reconciles each run's trace
// against its SimStats and checks its invariants; any mismatch or
// violation aborts the sweep.
//
// Usage: bench_chaos [--smoke] [output.json]
//   --smoke: tiny duration / single seed, for wiring into ctest so the
//   chaos path cannot rot; writes BENCH_CHAOS_smoke.json by default.
//   Any other argument starting with '-' is a usage error (exit 2).
#include "common/stats.hpp"
#include "fleet_runner.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "scenario/scenario.hpp"
#include "scenario_runner.hpp"
#include "trace/eventlog.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using rem::sim::FaultConfig;
using rem::sim::FaultKind;
using rem::sim::FaultWindow;

/// Periodic scripted windows: one fault class, `period_s` apart.
FaultConfig periodic(FaultKind kind, double first_s, double period_s,
                     double duration_s, double magnitude, double horizon_s) {
  FaultConfig cfg;
  for (double t = first_s; t < horizon_s; t += period_s)
    cfg.windows.push_back({kind, t, duration_s, magnitude});
  return cfg;
}

/// One manager's results for one sweep configuration: the stats-table
/// counters summed over the seeds' runs, plus the metrics derived from
/// them and from the runs' event logs.
struct ManagerMetrics {
  rem::sim::SimStats total;  ///< sim::accumulate_run_stats over the runs
  double failure_ratio = 0.0;
  double mean_recovery_s = 0.0;  ///< mean outage duration (RLF -> camp)
  double p95_recovery_s = 0.0;
  double downtime_fraction = 0.0;  ///< mean over the runs
  double mean_prep_rtt_s = 0.0;
  std::uint64_t backhaul_dropped = 0;  ///< loss + partition + queue
  double mean_bs_queue_wait_s = 0.0;
  /// Worst gap from a BS crash opening to the first subsequent
  /// re-establishment or completed handover (whichever comes first);
  /// covers the crash window itself plus post-restart re-attachment.
  double max_crash_recovery_s = 0.0;
  /// Worst RLF-to-re-establishment gap across every UE's own event stream
  /// (an outage still open at the horizon counts the full remainder) —
  /// the fleet-safe service-recovery bound, unlike max_crash_recovery_s
  /// which pairs a crash with the *next* mobility event and so only means
  /// something in single-UE logs.
  double max_outage_s = 0.0;
};

struct ClassResult {
  std::string name;
  std::size_t windows = 0;
  ManagerMetrics legacy, rem;
};

/// Worst crash-to-recovery gap in one run's event log: for every kBsCrash
/// the first later kReestablished/kHandoverComplete closes the gap; a
/// crash with no recovery before the horizon counts the full remainder
/// (so an unrecovered crash cannot pass a recovery gate by omission).
double worst_crash_recovery_s(const rem::sim::EventLog& events,
                              double horizon_s) {
  double worst = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != rem::sim::EventKind::kBsCrash) continue;
    double recovered_at = horizon_s;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind == rem::sim::EventKind::kReestablished ||
          events[j].kind == rem::sim::EventKind::kHandoverComplete) {
        recovered_at = events[j].t_s;
        break;
      }
    }
    worst = std::max(worst, recovered_at - events[i].t_s);
  }
  return worst;
}

/// Worst radio-link-failure-to-re-establishment gap, per owning UE: for
/// each kRadioLinkFailure the first later kReestablished *of the same UE*
/// closes the gap, so the helper is exact on fleet-merged event logs too;
/// an outage still open at the horizon counts the full remainder.
double worst_outage_s(const rem::sim::EventLog& events, double horizon_s) {
  double worst = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != rem::sim::EventKind::kRadioLinkFailure) continue;
    double recovered_at = horizon_s;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].ue != events[i].ue) continue;
      if (events[j].kind == rem::sim::EventKind::kReestablished) {
        recovered_at = events[j].t_s;
        break;
      }
    }
    worst = std::max(worst, recovered_at - events[i].t_s);
  }
  return worst;
}

ManagerMetrics fold(const std::vector<rem::sim::SimStats>& runs,
                    double horizon_s) {
  ManagerMetrics m;
  for (const auto& s : runs) {
    rem::sim::accumulate_run_stats(m.total, s);
    m.downtime_fraction += s.downtime_fraction / runs.size();
    m.max_crash_recovery_s = std::max(
        m.max_crash_recovery_s, worst_crash_recovery_s(s.events, horizon_s));
    m.max_outage_s =
        std::max(m.max_outage_s, worst_outage_s(s.events, horizon_s));
  }
  const auto& t = m.total;
  m.failure_ratio = t.failure_ratio();
  rem::common::Summary recovery;
  recovery.add_all(t.outage_durations_s);
  if (recovery.count() > 0) {
    m.mean_recovery_s = recovery.mean();
    m.p95_recovery_s = recovery.percentile(95.0);
  }
  m.mean_prep_rtt_s = t.prep_acks > 0 ? t.prep_rtt_sum_s / t.prep_acks : 0.0;
  m.backhaul_dropped = t.backhaul_dropped_loss + t.backhaul_dropped_partition +
                       t.backhaul_dropped_queue;
  m.mean_bs_queue_wait_s =
      t.bs_jobs_served > 0 ? t.bs_queue_wait_sum_s / t.bs_jobs_served : 0.0;
  return m;
}

void print_metrics(const char* label, const ManagerMetrics& m,
                   const ManagerMetrics& base) {
  const auto& t = m.total;
  std::printf(
      "  %-7s failure %5.1f%% (base %4.1f%%)  recovery mean %5.2f s "
      "p95 %5.2f s  downtime %5.2f%%  rtx %3d  t304 %2d (fb %2d)  dup %2d  "
      "degraded %5.1f s (%d)\n",
      label, 100.0 * m.failure_ratio, 100.0 * base.failure_ratio,
      m.mean_recovery_s, m.p95_recovery_s, 100.0 * m.downtime_fraction,
      t.report_retransmits, t.t304_expiries, t.t304_fallback_success,
      t.duplicate_commands, t.degraded_time_s, t.degraded_enters);
  if (t.prep_requests > 0)
    std::printf(
        "          prep %4d req %3d retry %4d ack %2d rej %2d fb %2d fail  "
        "rtt %4.1f ms  ctx-fail %d  frames %llu/%llu (drop %llu)\n",
        t.prep_requests, t.prep_retries, t.prep_acks, t.prep_rejects,
        t.prep_fallbacks, t.prep_failures, 1e3 * m.mean_prep_rtt_s,
        t.context_fetch_failures,
        static_cast<unsigned long long>(t.backhaul_delivered),
        static_cast<unsigned long long>(t.backhaul_sent),
        static_cast<unsigned long long>(m.backhaul_dropped));
  if (t.bs_jobs_submitted > 0 || t.bs_crashes > 0)
    std::printf(
        "          bs %5d jobs %4d shed %3d flushed  wait %5.1f ms  "
        "adm-rej %3d (retry %3d)  crash %2d (drop %3d, stale-ctx %2d)  "
        "crash-recovery %4.1f s\n",
        t.bs_jobs_submitted, t.bs_queue_shed, t.bs_jobs_flushed,
        1e3 * m.mean_bs_queue_wait_s, t.admission_rejects,
        t.admission_backoff_retries, t.bs_crashes, t.bs_crash_dropped_msgs,
        t.stale_context_responses, m.max_crash_recovery_s);
  if (t.cascade_activations > 0 || t.breaker_trips > 0 ||
      t.load_ads_received > 0 || t.storm_jitter_applied > 0)
    std::printf(
        "          cascade %3d inj (%4d jobs)  breaker %3d trip %3d probe "
        "%3d close %4d skip  load-ads %5d  jitter %4d  loops %d ep / %d ho  "
        "outage max %5.2f s\n",
        t.cascade_activations, t.cascade_jobs_injected, t.breaker_trips,
        t.breaker_probes, t.breaker_closes, t.breaker_skips,
        t.load_ads_received, t.storm_jitter_applied, t.loop_episodes,
        t.loop_handovers, m.max_outage_s);
}

void write_metrics_json(std::ofstream& js, const ManagerMetrics& m,
                        const ManagerMetrics& base) {
  const auto& t = m.total;
  js << "{\"handovers\": " << t.handovers << ", \"failures\": " << t.failures
     << ", \"failure_ratio\": " << m.failure_ratio
     << ", \"delta_failure_ratio\": " << m.failure_ratio - base.failure_ratio
     << ", \"mean_recovery_s\": " << m.mean_recovery_s
     << ", \"delta_mean_recovery_s\": "
     << m.mean_recovery_s - base.mean_recovery_s
     << ", \"p95_recovery_s\": " << m.p95_recovery_s
     << ", \"downtime_fraction\": " << m.downtime_fraction
     << ", \"report_retransmits\": " << t.report_retransmits
     << ", \"t304_expiries\": " << t.t304_expiries
     << ", \"t304_fallback_success\": " << t.t304_fallback_success
     << ", \"duplicate_commands\": " << t.duplicate_commands
     << ", \"degraded_enters\": " << t.degraded_enters
     << ", \"degraded_time_s\": " << t.degraded_time_s
     << ", \"prep_requests\": " << t.prep_requests
     << ", \"prep_retries\": " << t.prep_retries
     << ", \"prep_acks\": " << t.prep_acks
     << ", \"prep_rejects\": " << t.prep_rejects
     << ", \"prep_fallbacks\": " << t.prep_fallbacks
     << ", \"prep_failures\": " << t.prep_failures
     << ", \"context_fetch_failures\": " << t.context_fetch_failures
     << ", \"mean_prep_rtt_s\": " << m.mean_prep_rtt_s
     << ", \"backhaul_sent\": " << t.backhaul_sent
     << ", \"backhaul_delivered\": " << t.backhaul_delivered
     << ", \"backhaul_dropped\": " << m.backhaul_dropped
     << ", \"bs_jobs_submitted\": " << t.bs_jobs_submitted
     << ", \"bs_jobs_served\": " << t.bs_jobs_served
     << ", \"bs_queue_shed\": " << t.bs_queue_shed
     << ", \"bs_jobs_flushed\": " << t.bs_jobs_flushed
     << ", \"mean_bs_queue_wait_s\": " << m.mean_bs_queue_wait_s
     << ", \"admission_rejects\": " << t.admission_rejects
     << ", \"admission_backoff_retries\": " << t.admission_backoff_retries
     << ", \"bs_crashes\": " << t.bs_crashes
     << ", \"bs_crash_dropped_msgs\": " << t.bs_crash_dropped_msgs
     << ", \"stale_context_responses\": " << t.stale_context_responses
     << ", \"max_crash_recovery_s\": " << m.max_crash_recovery_s
     << ", \"cascade_activations\": " << t.cascade_activations
     << ", \"cascade_jobs_injected\": " << t.cascade_jobs_injected
     << ", \"breaker_trips\": " << t.breaker_trips
     << ", \"breaker_probes\": " << t.breaker_probes
     << ", \"breaker_closes\": " << t.breaker_closes
     << ", \"breaker_skips\": " << t.breaker_skips
     << ", \"load_ads_received\": " << t.load_ads_received
     << ", \"storm_jitter_applied\": " << t.storm_jitter_applied
     << ", \"loop_episodes\": " << t.loop_episodes
     << ", \"loop_handovers\": " << t.loop_handovers
     << ", \"max_outage_s\": " << m.max_outage_s << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.starts_with('-')) {
      std::fprintf(stderr,
                   "bench_chaos: unknown option '%s'\n"
                   "usage: bench_chaos [--smoke] [output.json]\n",
                   arg.c_str());
      return 2;
    } else {
      out_path = arg;
    }
  }
  if (out_path.empty())
    out_path = smoke ? "BENCH_CHAOS_smoke.json" : "BENCH_CHAOS.json";

  const auto route = rem::trace::Route::kBeijingShanghai;
  const double speed_kmh = 300.0;
  const double duration_s = smoke ? 80.0 : 400.0;
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1}
            : std::vector<std::uint64_t>{1, 2, 3};
  rem::phy::LogisticBlerModel bler;

  // Fault schedules: the first window opens early so the smoke run
  // exercises every class too. Magnitudes are per-kind (see FaultWindow).
  struct ClassSpec {
    FaultKind kind;
    double first_s, period_s, duration_s, magnitude;
  };
  const std::vector<ClassSpec> classes = {
      {FaultKind::kSignalingLoss, 15.0, 60.0, 5.0, 1.0},
      {FaultKind::kPilotOutage, 15.0, 60.0, 8.0, 4.0},
      {FaultKind::kProcessingStall, 15.0, 60.0, 12.0, 0.6},
      {FaultKind::kCoverageBlackout, 15.0, 60.0, 4.0, 60.0},
      {FaultKind::kCommandDuplication, 10.0, 60.0, 25.0, 1.0},
      // u = 1.0 fills every station to slots + queue, so legacy's RRC
      // decision jobs shed outright while REM (client-driven) never
      // submits one; admission busy-rejects hit both managers' preps.
      // 14 s windows outlast legacy's decision-to-link-death margin (a
      // shed decision then turns into an RLF) but stay inside REM's
      // prediction lead, which is the degraded-mode asymmetry the gates
      // below pin down.
      {FaultKind::kBsOverload, 15.0, 60.0, 14.0, 1.0},
      // magnitude 1.0 < 2 picks the serving BS as victim at window open.
      {FaultKind::kBsCrashRestart, 20.0, 60.0, 5.0, 1.0},
  };

  // Backhaul sweep: sustained loss at the 1/5/10% points (one window over
  // nearly the whole horizon; period > horizon keeps it single), periodic
  // one-way delay spikes that push the prep RTT past its first timeout,
  // and periodic full partitions long enough to exhaust the retry budget.
  struct BackhaulSpec {
    std::string label;
    FaultKind kind;
    double first_s, period_s, duration_s, magnitude;
  };
  const std::vector<BackhaulSpec> backhaul_classes = {
      {"backhaul_loss_1", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.01},
      {"backhaul_loss_5", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.05},
      {"backhaul_loss_10", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.10},
      {"backhaul_delay_spike", FaultKind::kBackhaulDelay, 15.0, 60.0, 10.0,
       0.025},
      {"backhaul_partition", FaultKind::kBackhaulPartition, 15.0, 60.0, 2.5,
       1.0},
  };

  // Side-channel observability outputs, next to the main JSON.
  const std::string stem = out_path.size() > 5 && out_path.ends_with(".json")
                               ? out_path.substr(0, out_path.size() - 5)
                               : out_path;
  const std::string metrics_path = stem + "_metrics.json";
  const std::string trace_path = stem + "_trace.jsonl";
  std::ofstream trace_js(trace_path);
  rem::obs::MetricsSnapshot metrics;

  const auto run_config = [&](const std::string& fault_label,
                              const FaultConfig& faults, ManagerMetrics& lg,
                              ManagerMetrics& rm) {
    auto sc = rem::trace::make_scenario(route, speed_kmh, duration_s);
    sc.sim.faults = faults;
    sc.sim.record_events = true;
    std::vector<rem::sim::SimStats> legacy_runs, rem_runs;
    for (const auto seed : seeds) {
      auto r = rem::bench::run_seed(sc, seed, true, bler,
                                    {/*collect_metrics=*/true});
      const std::string ctx = "\"fault\": \"" + fault_label +
                              "\", \"seed\": \"" + std::to_string(seed) +
                              "\", \"manager\": ";
      rem::obs::write_spans_jsonl(trace_js, r.legacy_spans,
                                  ctx + "\"legacy\"");
      metrics.merge(r.legacy_metrics);
      rem::obs::write_spans_jsonl(trace_js, r.rem_spans, ctx + "\"rem\"");
      metrics.merge(r.rem_metrics);
      legacy_runs.push_back(std::move(r.legacy));
      rem_runs.push_back(std::move(r.rem));
    }
    lg = fold(legacy_runs, duration_s);
    rm = fold(rem_runs, duration_s);
  };

  std::printf("chaos sweep: %s, %.0f km/h, %.0f s x %zu seeds%s\n",
              rem::trace::route_name(route).c_str(), speed_kmh, duration_s,
              seeds.size(), smoke ? " [smoke]" : "");

  ManagerMetrics base_legacy, base_rem;
  run_config("baseline", {}, base_legacy, base_rem);
  std::printf("baseline (no faults)\n");
  print_metrics("legacy", base_legacy, base_legacy);
  print_metrics("REM", base_rem, base_rem);

  std::vector<ClassResult> results;
  for (const auto& c : classes) {
    const auto faults = periodic(c.kind, c.first_s, c.period_s, c.duration_s,
                                 c.magnitude, duration_s);
    ClassResult r;
    r.name = rem::sim::fault_kind_name(c.kind);
    r.windows = faults.windows.size();
    run_config(r.name, faults, r.legacy, r.rem);
    std::printf("%s (%zu windows of %.0f s, magnitude %g)\n", r.name.c_str(),
                r.windows, c.duration_s, c.magnitude);
    print_metrics("legacy", r.legacy, base_legacy);
    print_metrics("REM", r.rem, base_rem);
    results.push_back(std::move(r));
  }

  std::vector<ClassResult> backhaul_results;
  for (const auto& c : backhaul_classes) {
    const auto faults = periodic(c.kind, c.first_s, c.period_s, c.duration_s,
                                 c.magnitude, duration_s);
    ClassResult r;
    r.name = c.label;
    r.windows = faults.windows.size();
    run_config(r.name, faults, r.legacy, r.rem);
    std::printf("%s (%zu windows of %.1f s, magnitude %g)\n", r.name.c_str(),
                r.windows, c.duration_s, c.magnitude);
    print_metrics("legacy", r.legacy, base_legacy);
    print_metrics("REM", r.rem, base_rem);
    backhaul_results.push_back(std::move(r));
  }

  // Fleet sweep: N UEs genuinely contending for BS slots and backhaul
  // capacity under the library's rail_overload_fleet scenario (the same
  // periodic bs_overload schedule as the single-UE class), compiled by
  // rem::scenario with the sweep's duration and fleet size as overrides.
  // Each fleet runs with one InvariantChecker per UE (run_fleet_scenario
  // throws on violations); per-seed aggregates fold in seed order, so the
  // section is deterministic at any thread count.
  const int fleet_size = smoke ? 6 : 12;
  const auto fleet_spec =
      rem::scenario::load_scenario(REM_SCENARIO_DIR, "rail_overload_fleet");
  rem::scenario::CompileOverrides fleet_ov;
  fleet_ov.duration_s = duration_s;
  fleet_ov.ue_count = fleet_size;
  const auto fleet_compiled = rem::scenario::compile(fleet_spec, fleet_ov);
  ManagerMetrics fleet_legacy, fleet_rem;
  {
    std::vector<rem::sim::SimStats> lg_runs, rm_runs;
    for (const auto seed : seeds) {
      const rem::bench::FleetScenarioRunOptions fopts{
          "the chaos fleet scenario 'rail_overload_fleet' (seed " +
          std::to_string(seed) + ")"};
      lg_runs.push_back(rem::bench::run_fleet_scenario(
                            fleet_compiled.scenario, seed, bler, false, fopts)
                            .aggregate);
      rm_runs.push_back(rem::bench::run_fleet_scenario(
                            fleet_compiled.scenario, seed, bler, true, fopts)
                            .aggregate);
    }
    fleet_legacy = fold(lg_runs, duration_s);
    fleet_rem = fold(rm_runs, duration_s);
  }
  std::printf("fleet bs_overload (%d UEs)\n", fleet_size);
  print_metrics("legacy", fleet_legacy, base_legacy);
  print_metrics("REM", fleet_rem, base_rem);

  // Cascade section: the two correlated-fault library scenarios —
  // rail_region_outage (staggered domain blackouts with load ads,
  // breakers, and storm damping armed) and dense_cascade_storm (a crash
  // whose load floods the surviving neighbors while breakers contain the
  // retry stampede) — run as full fleets with per-UE invariant checkers
  // (run_fleet_scenario throws on any breaker-legality or load-ad
  // staleness violation, so those invariants are machine-checked on every
  // bench run). Events stay recorded so the per-UE outage bound below is
  // computable on the merged logs.
  struct CascadeResult {
    std::string name;
    int fleet_size = 0;
    std::size_t windows = 0;
    bool region_outage = false;
    bool cascade_overload = false;
    ManagerMetrics legacy, rem;
  };
  std::vector<CascadeResult> cascade_results;
  std::set<int> cascade_kinds;
  for (const char* scen_cstr : {"rail_region_outage", "dense_cascade_storm"}) {
    const std::string scen_name = scen_cstr;
    const auto spec =
        rem::scenario::load_scenario(REM_SCENARIO_DIR, scen_name);
    rem::scenario::CompileOverrides ov;
    if (smoke) ov.duration_s = duration_s;  // shrink to the smoke horizon
    auto sc = rem::scenario::compile(spec, ov).scenario;
    sc.sim.record_events = true;
    const double horizon = sc.sim.duration_s;
    CascadeResult r;
    r.name = scen_name;
    r.fleet_size = sc.sim.fleet_size;
    r.windows = sc.sim.faults.windows.size();
    for (const auto& w : sc.sim.faults.windows) {
      cascade_kinds.insert(static_cast<int>(w.kind));
      if (w.kind == FaultKind::kRegionOutage) r.region_outage = true;
      if (w.kind == FaultKind::kCascadeOverload) r.cascade_overload = true;
    }
    std::vector<rem::sim::SimStats> lg_runs, rm_runs;
    for (const auto seed : seeds) {
      const rem::bench::FleetScenarioRunOptions fopts{
          "the chaos cascade scenario '" + scen_name + "' (seed " +
          std::to_string(seed) + ")"};
      lg_runs.push_back(
          rem::bench::run_fleet_scenario(sc, seed, bler, false, fopts)
              .aggregate);
      rm_runs.push_back(
          rem::bench::run_fleet_scenario(sc, seed, bler, true, fopts)
              .aggregate);
    }
    r.legacy = fold(lg_runs, horizon);
    r.rem = fold(rm_runs, horizon);
    std::printf("cascade %s (%d UEs, %zu windows, %.0f s)\n",
                r.name.c_str(), r.fleet_size, r.windows, horizon);
    print_metrics("legacy", r.legacy, base_legacy);
    print_metrics("REM", r.rem, base_rem);
    cascade_results.push_back(std::move(r));
  }

  std::ofstream js(out_path);
  js << "{\n";
  js << "  \"route\": \"" << rem::trace::route_name(route) << "\",\n";
  js << "  \"speed_kmh\": " << speed_kmh << ",\n";
  js << "  \"duration_s\": " << duration_s << ",\n";
  js << "  \"seeds\": " << seeds.size() << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"baseline\": {\"legacy\": ";
  write_metrics_json(js, base_legacy, base_legacy);
  js << ", \"rem\": ";
  write_metrics_json(js, base_rem, base_rem);
  js << "},\n";
  js << "  \"faults\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    js << "    \"" << r.name << "\": {\"windows\": " << r.windows
       << ", \"legacy\": ";
    write_metrics_json(js, r.legacy, base_legacy);
    js << ", \"rem\": ";
    write_metrics_json(js, r.rem, base_rem);
    js << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  js << "  },\n";
  js << "  \"backhaul\": {\n";
  for (std::size_t i = 0; i < backhaul_results.size(); ++i) {
    const auto& r = backhaul_results[i];
    js << "    \"" << r.name << "\": {\"windows\": " << r.windows
       << ", \"legacy\": ";
    write_metrics_json(js, r.legacy, base_legacy);
    js << ", \"rem\": ";
    write_metrics_json(js, r.rem, base_rem);
    js << "}" << (i + 1 < backhaul_results.size() ? "," : "") << "\n";
  }
  js << "  },\n";
  js << "  \"fleet\": {\n";
  js << "    \"bs_overload\": {\"scenario\": \"" << fleet_compiled.name
     << "\", \"fleet_size\": " << fleet_size << ", \"windows\": "
     << fleet_compiled.scenario.sim.faults.windows.size()
     << ", \"legacy\": ";
  write_metrics_json(js, fleet_legacy, base_legacy);
  js << ", \"rem\": ";
  write_metrics_json(js, fleet_rem, base_rem);
  js << "}\n";
  js << "  },\n";
  js << "  \"cascade\": {\n";
  for (std::size_t i = 0; i < cascade_results.size(); ++i) {
    const auto& r = cascade_results[i];
    js << "    \"" << r.name << "\": {\"fleet_size\": " << r.fleet_size
       << ", \"windows\": " << r.windows << ", \"legacy\": ";
    write_metrics_json(js, r.legacy, base_legacy);
    js << ", \"rem\": ";
    write_metrics_json(js, r.rem, base_rem);
    js << "}" << (i + 1 < cascade_results.size() ? "," : "") << "\n";
  }
  js << "  }\n";
  js << "}\n";
  rem::obs::write_metrics_json_file(metrics, metrics_path);
  trace_js.close();
  std::printf("wrote %s, %s, %s\n", out_path.c_str(), metrics_path.c_str(),
              trace_path.c_str());

  // Acceptance gates: the degraded-mode fallback must actually fire under
  // a pilot outage, and the blackout class must produce observable
  // recoveries; a chaos sweep that cannot provoke its faults is rot.
  // REM must keep its failure ratio essentially flat under BS overload
  // (client-side prediction sidesteps the shed decision queue) while
  // legacy degrades by a visible margin; crash recovery is bounded by an
  // explicit constant so "restart re-establishes state" is a checked
  // claim, not prose.
  constexpr double kMaxRemOverloadFailureRatio = 0.01;
  constexpr double kMinLegacyOverloadDegradation = 0.05;
  constexpr double kMaxCrashRecoveryS = 10.0;
  bool ok = true;
  for (const auto& r : results) {
    if (r.name == "pilot_outage" && r.rem.total.degraded_enters == 0) {
      std::printf("FAIL: REM never entered degraded mode under %s\n",
                  r.name.c_str());
      ok = false;
    }
    if (r.name == "coverage_blackout" &&
        r.legacy.total.failures + r.rem.total.failures == 0) {
      std::printf("FAIL: no failures observed under %s\n", r.name.c_str());
      ok = false;
    }
    if (r.name == "bs_overload") {
      if (r.legacy.total.bs_queue_shed == 0) {
        std::printf("FAIL: legacy never shed a BS job under %s\n",
                    r.name.c_str());
        ok = false;
      }
      if (r.rem.failure_ratio > kMaxRemOverloadFailureRatio) {
        std::printf("FAIL: REM failure ratio %.2f%% under %s (max %.2f%%)\n",
                    100.0 * r.rem.failure_ratio, r.name.c_str(),
                    100.0 * kMaxRemOverloadFailureRatio);
        ok = false;
      }
      if (!smoke && r.legacy.failure_ratio <
                        base_legacy.failure_ratio +
                            kMinLegacyOverloadDegradation) {
        std::printf("FAIL: legacy failure ratio %.2f%% under %s did not "
                    "degrade >= %.0f points over baseline %.2f%%\n",
                    100.0 * r.legacy.failure_ratio, r.name.c_str(),
                    100.0 * kMinLegacyOverloadDegradation,
                    100.0 * base_legacy.failure_ratio);
        ok = false;
      }
      if (r.rem.total.admission_rejects +
              r.rem.total.admission_backoff_retries ==
          0) {
        std::printf("FAIL: admission control never fired for REM under %s\n",
                    r.name.c_str());
        ok = false;
      }
    }
    if (r.name == "bs_crash_restart") {
      // Every scripted window must actually kill a BS — for both managers
      // (the schedule is deterministic: windows x seeds crashes each).
      const int expected =
          static_cast<int>(r.windows) * static_cast<int>(seeds.size());
      for (const auto* m : {&r.legacy, &r.rem}) {
        if (m->total.bs_crashes != expected) {
          std::printf("FAIL: %d BS crashes under %s (expected %d)\n",
                      m->total.bs_crashes, r.name.c_str(), expected);
          ok = false;
        }
      }
      if (r.rem.max_crash_recovery_s > kMaxCrashRecoveryS) {
        std::printf("FAIL: REM crash recovery %.1f s under %s (bound %.1f "
                    "s)\n",
                    r.rem.max_crash_recovery_s, r.name.c_str(),
                    kMaxCrashRecoveryS);
        ok = false;
      }
    }
  }

  // Chaos coverage: the sweep's class lists must exercise every
  // registered FaultKind, so a new kind cannot land without a window
  // here. Also bound the smoke run's deterministic sim-time budget so
  // wiring it into ctest stays cheap.
  std::set<int> covered;
  for (const auto& c : classes) covered.insert(static_cast<int>(c.kind));
  for (const auto& c : backhaul_classes)
    covered.insert(static_cast<int>(c.kind));
  covered.insert(cascade_kinds.begin(), cascade_kinds.end());
  if (covered.size() != rem::sim::kNumFaultKinds) {
    std::printf("FAIL: chaos sweep covers %zu of %zu FaultKinds\n",
                covered.size(), rem::sim::kNumFaultKinds);
    ok = false;
  }
  if (smoke) {
    for (const auto& c : classes)
      if (c.first_s + c.duration_s >= duration_s) {
        std::printf("FAIL: smoke horizon misses a %s window\n",
                    rem::sim::fault_kind_name(c.kind).c_str());
        ok = false;
      }
    for (const auto& c : backhaul_classes)
      if (c.first_s >= duration_s) {
        std::printf("FAIL: smoke horizon misses a %s window\n",
                    c.label.c_str());
        ok = false;
      }
    constexpr double kMaxSmokeSimSeconds = 2600.0;
    const double sim_seconds =
        duration_s * static_cast<double>(seeds.size()) *
        static_cast<double>(1 + classes.size() + backhaul_classes.size()) *
        2.0;  // two managers per config
    if (sim_seconds > kMaxSmokeSimSeconds) {
      std::printf("FAIL: smoke budget %.0f sim-seconds exceeds %.0f\n",
                  sim_seconds, kMaxSmokeSimSeconds);
      ok = false;
    }
  }

  // Backhaul gates. Loss up to 10% and bounded delay spikes must be fully
  // absorbed by the prep retry/backoff budget: REM keeps the paper's zero
  // failure ratio. Partitions may fail handovers, but only gracefully —
  // the fallback/failure paths fire, retries stay inside the per-attempt
  // budget (no storms), every outage recovers within the horizon, and
  // legacy visibly degrades where it shares the same faulty links.
  for (const auto& r : backhaul_results) {
    const bool loss_or_delay = r.name.rfind("backhaul_loss", 0) == 0 ||
                               r.name.rfind("backhaul_delay", 0) == 0;
    if (loss_or_delay && r.rem.total.failures > 0) {
      std::printf("FAIL: REM failure ratio %.2f%% under %s (expected 0)\n",
                  100.0 * r.rem.failure_ratio, r.name.c_str());
      ok = false;
    }
    for (const auto* m : {&r.legacy, &r.rem}) {
      const auto& t = m->total;
      const long long budget =
          static_cast<long long>(t.prep_requests) * rem::sim::kPrepMaxRetries;
      if (t.prep_retries > budget) {
        std::printf("FAIL: retry storm under %s (%d retries for %d "
                    "requests)\n",
                    r.name.c_str(), t.prep_retries, t.prep_requests);
        ok = false;
      }
    }
    if (r.name == "backhaul_partition") {
      if (r.rem.total.prep_fallbacks + r.rem.total.prep_failures == 0) {
        std::printf("FAIL: partitions never exercised the fallback/failure "
                    "path under %s\n",
                    r.name.c_str());
        ok = false;
      }
      // "Measurably degrades": either the radio failure ratio rises above
      // the fault-free baseline, or preparations visibly fail/fall back on
      // the partitioned links (the only signal in short smoke horizons
      // where recovery masks the radio impact).
      const bool legacy_degraded =
          r.legacy.failure_ratio > base_legacy.failure_ratio ||
          r.legacy.total.prep_failures + r.legacy.total.prep_fallbacks > 0;
      if (!legacy_degraded) {
        std::printf("FAIL: legacy did not degrade under %s (%.2f%% vs "
                    "baseline %.2f%%, no prep failures/fallbacks)\n",
                    r.name.c_str(), 100.0 * r.legacy.failure_ratio,
                    100.0 * base_legacy.failure_ratio);
        ok = false;
      }
      if (r.rem.downtime_fraction > 0.25) {
        std::printf("FAIL: REM downtime %.1f%% under %s (recovery not "
                    "bounded)\n",
                    100.0 * r.rem.downtime_fraction, r.name.c_str());
        ok = false;
      }
    }
  }

  // Fleet gate: with N UEs genuinely contending for control-plane slots
  // under BS overload, REM's client-driven decisions must keep the fleet
  // failure ratio strictly below legacy's — the paper's asymmetry must
  // survive contention, not just the single-UE benches.
  if (!(fleet_rem.failure_ratio < fleet_legacy.failure_ratio)) {
    std::printf("FAIL: fleet (%d UEs) REM failure ratio %.2f%% not strictly "
                "below legacy %.2f%% under bs_overload\n",
                fleet_size, 100.0 * fleet_rem.failure_ratio,
                100.0 * fleet_legacy.failure_ratio);
    ok = false;
  }
  if (fleet_legacy.total.bs_queue_shed == 0) {
    std::printf("FAIL: legacy fleet never shed a BS job under overload "
                "contention\n");
    ok = false;
  }

  // Cascade gates. Under correlated regional faults REM's fleet failure
  // ratio must sit strictly below legacy's (load-aware steering + breakers
  // must buy something real, not just not hurt); service recovery after
  // the faults clear is bounded by the same explicit constant as crash
  // recovery, measured as the worst per-UE RLF-to-re-establishment gap;
  // storms must leave zero *persistent* ping-pong (a loop episode holding
  // two or more loop handovers — a single flap back is transient, a
  // sustained oscillation is a steering failure); and each scenario must
  // actually provoke its machinery (region kills, cascade injections,
  // breaker trips, load advertisements) — a cascade sweep that cannot
  // trigger its faults is rot.
  for (const auto& r : cascade_results) {
    const auto& lg = r.legacy.total;
    const auto& rm = r.rem.total;
    if (r.region_outage) {
      if (lg.bs_crashes == 0 || rm.bs_crashes == 0) {
        std::printf("FAIL: %s never killed a BS (legacy %d, rem %d)\n",
                    r.name.c_str(), lg.bs_crashes, rm.bs_crashes);
        ok = false;
      }
      if (!(r.rem.failure_ratio < r.legacy.failure_ratio)) {
        std::printf("FAIL: %s REM fleet failure ratio %.2f%% not strictly "
                    "below legacy %.2f%%\n",
                    r.name.c_str(), 100.0 * r.rem.failure_ratio,
                    100.0 * r.legacy.failure_ratio);
        ok = false;
      }
      if (rm.load_ads_received == 0) {
        std::printf("FAIL: %s REM fleet never applied a load "
                    "advertisement\n",
                    r.name.c_str());
        ok = false;
      }
    }
    if (r.cascade_overload) {
      if (lg.cascade_activations + rm.cascade_activations == 0 ||
          lg.cascade_jobs_injected + rm.cascade_jobs_injected == 0) {
        std::printf("FAIL: %s never injected a cascade job\n",
                    r.name.c_str());
        ok = false;
      }
      if (lg.breaker_trips + rm.breaker_trips == 0) {
        std::printf("FAIL: %s never tripped a circuit breaker\n",
                    r.name.c_str());
        ok = false;
      }
      if (rm.loop_handovers > rm.loop_episodes) {
        std::printf("FAIL: %s REM shows persistent ping-pong (%d loop "
                    "handovers over %d episodes)\n",
                    r.name.c_str(), rm.loop_handovers, rm.loop_episodes);
        ok = false;
      }
    }
    if (r.rem.max_outage_s > kMaxCrashRecoveryS) {
      std::printf("FAIL: %s REM worst outage %.1f s (recovery bound %.1f "
                  "s)\n",
                  r.name.c_str(), r.rem.max_outage_s, kMaxCrashRecoveryS);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
