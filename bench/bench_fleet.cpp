// Named-scenario fleet sweep: compile every scenarios/*.json through the
// rem::scenario compiler, run REM and legacy fleets over each compiled
// world, and enforce each scenario's own acceptance gates.
//
// Modes:
//   (default)    full sweep at the scenarios' authored durations; writes
//                BENCH_FLEET.json + BENCH_FLEET_metrics.json.
//   --smoke      same sweep with extra time compression so every compiled
//                horizon fits in kSmokeHorizon_s. Compression (not
//                truncation) keeps every authored fault window inside the
//                run; writes BENCH_FLEET_smoke.json. Wired into ctest as
//                bench_fleet_smoke (label: chaos).
//   --validate   compile every scenario at authored parameters (the real
//                configs are what must validate), then run only the
//                shortest one end-to-end — extra-compressed, invariant
//                checkers attached — as the check_tier1.sh --scenarios
//                step. No JSON artifacts.
//   --list       print the scenario catalogue — name, fleet size, horizon,
//                fault kinds exercised, and acceptance gates — without
//                running anything. Wired into ctest as bench_fleet_list.
//   --dir <d>    read scenarios from <d> instead of the baked-in
//                REM_SCENARIO_DIR.
// Any other argument starting with '-', or --dir without a value, is a
// usage error (exit 2) before anything runs.
//
// Determinism: each scenario runs at its own seed through the fixed
// fleet construction order (bench/fleet_runner.hpp); invariant checkers
// ride every UE of every run, so a sweep that passes also certifies the
// per-UE protocol invariants under each scenario's fault schedule. The
// sweep runs scenarios on testkit::bench_threads() workers
// (REM_BENCH_THREADS) and records, prints and writes them in name order,
// so its outputs are byte-identical for any thread count.
//
// EXPERIMENTS.md documents the output schema; SCENARIOS.md catalogues the
// library and the per-scenario gate rationale.
#include "common/parallel.hpp"
#include "fleet_runner.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sim/fault_injector.hpp"
#include "testkit/seeds.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#ifndef REM_SCENARIO_DIR
#define REM_SCENARIO_DIR "scenarios"
#endif

namespace {

/// Smoke/validate horizon cap: the sweep stays CI-sized on one core.
constexpr double kSmokeHorizon_s = 45.0;
constexpr double kValidateHorizon_s = 30.0;

/// Extra time compression that brings a spec's compiled horizon at or
/// under `cap_s` (1.0 when it already fits). Integral factors keep the
/// compressed fault schedules easy to reason about in logs.
double extra_compression_for(const rem::scenario::ScenarioSpec& spec,
                             double cap_s) {
  const double compiled = spec.duration_s / spec.time_compression;
  if (compiled <= cap_s) return 1.0;
  return std::ceil(compiled / cap_s);
}

struct FleetMetrics {
  int handovers = 0;
  int failures = 0;
  double failure_ratio = 0.0;
  double downtime_fraction = 0.0;
  int degraded_enters = 0;
  int prep_failures = 0;
  int bs_queue_shed = 0;
  int admission_rejects = 0;
  int bs_crashes = 0;
  std::uint64_t backhaul_dropped = 0;
};

FleetMetrics summarize(const rem::sim::SimStats& s) {
  FleetMetrics m;
  m.handovers = s.handovers;
  m.failures = s.failures;
  m.failure_ratio =
      s.handovers > 0 ? static_cast<double>(s.failures) / s.handovers
                      : (s.failures > 0 ? 1.0 : 0.0);
  m.downtime_fraction = s.downtime_fraction;
  m.degraded_enters = s.degraded_enters;
  m.prep_failures = s.prep_failures;
  m.bs_queue_shed = s.bs_queue_shed;
  m.admission_rejects = s.admission_rejects;
  m.bs_crashes = s.bs_crashes;
  m.backhaul_dropped = s.backhaul_dropped_loss + s.backhaul_dropped_partition +
                       s.backhaul_dropped_queue;
  return m;
}

struct ScenarioResult {
  std::string name;
  double duration_s = 0.0;
  int fleet_size = 0;
  std::size_t fault_windows = 0;
  rem::scenario::ScenarioGates gates;
  FleetMetrics legacy, rem;
  std::vector<std::string> gate_failures;

  bool pass() const { return gate_failures.empty(); }
};

/// Run both managers over one compiled scenario and evaluate its gates.
ScenarioResult run_scenario(const rem::scenario::CompiledScenario& c,
                            const rem::phy::BlerModel& bler) {
  ScenarioResult r;
  r.name = c.name;
  r.duration_s = c.scenario.sim.duration_s;
  r.fleet_size = c.scenario.sim.fleet_size;
  r.fault_windows = c.scenario.sim.faults.windows.size();
  r.gates = c.gates;

  const auto run = [&](bool use_rem) {
    const std::string context = "scenario '" + c.name + "' (seed " +
                                std::to_string(c.seed) + ", " +
                                (use_rem ? "REM" : "legacy") + ")";
    return rem::bench::run_fleet_scenario(c.scenario, c.seed, bler, use_rem,
                                          {context})
        .aggregate;
  };
  r.legacy = summarize(run(false));
  r.rem = summarize(run(true));

  char buf[256];
  if (r.legacy.handovers < r.gates.min_legacy_handovers) {
    std::snprintf(buf, sizeof(buf),
                  "legacy handovers %d below gate.min_legacy_handovers %d "
                  "(scenario provokes too little mobility)",
                  r.legacy.handovers, r.gates.min_legacy_handovers);
    r.gate_failures.push_back(buf);
  }
  if (r.rem.failure_ratio > r.gates.max_rem_failure_ratio) {
    std::snprintf(buf, sizeof(buf),
                  "REM failure ratio %.4f above gate.max_rem_failure_ratio "
                  "%.4f",
                  r.rem.failure_ratio, r.gates.max_rem_failure_ratio);
    r.gate_failures.push_back(buf);
  }
  if (r.gates.rem_le_legacy && r.rem.failure_ratio > r.legacy.failure_ratio) {
    std::snprintf(buf, sizeof(buf),
                  "REM failure ratio %.4f exceeds legacy %.4f "
                  "(gate.rem_le_legacy)",
                  r.rem.failure_ratio, r.legacy.failure_ratio);
    r.gate_failures.push_back(buf);
  }
  return r;
}

/// Per-scenario metric labels (OBSERVABILITY.md): every counter the sweep
/// emits is prefixed scenario.<name>.<manager>.
void record_metrics(rem::obs::MetricsSnapshot& metrics,
                    const ScenarioResult& r) {
  const auto record = [&](const char* mgr, const FleetMetrics& m) {
    const std::string p = "scenario." + r.name + "." + mgr + ".";
    metrics.add_counter(p + "handovers",
                        static_cast<std::uint64_t>(m.handovers));
    metrics.add_counter(p + "failures",
                        static_cast<std::uint64_t>(m.failures));
    metrics.add_counter(p + "prep_failures",
                        static_cast<std::uint64_t>(m.prep_failures));
    metrics.add_counter(p + "bs_queue_shed",
                        static_cast<std::uint64_t>(m.bs_queue_shed));
    metrics.add_counter(p + "admission_rejects",
                        static_cast<std::uint64_t>(m.admission_rejects));
    metrics.add_counter(p + "backhaul_dropped", m.backhaul_dropped);
    metrics.set_gauge(p + "failure_ratio", m.failure_ratio);
    metrics.set_gauge(p + "downtime_fraction", m.downtime_fraction);
  };
  record("legacy", r.legacy);
  record("rem", r.rem);
}

void write_manager_json(std::ostream& os, const FleetMetrics& m) {
  os << "{\"handovers\": " << m.handovers << ", \"failures\": " << m.failures
     << ", \"failure_ratio\": " << m.failure_ratio
     << ", \"downtime_fraction\": " << m.downtime_fraction
     << ", \"degraded_enters\": " << m.degraded_enters
     << ", \"prep_failures\": " << m.prep_failures
     << ", \"bs_queue_shed\": " << m.bs_queue_shed
     << ", \"admission_rejects\": " << m.admission_rejects
     << ", \"bs_crashes\": " << m.bs_crashes
     << ", \"backhaul_dropped\": " << m.backhaul_dropped << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, validate = false, list = false;
  std::string dir = REM_SCENARIO_DIR;
  std::string out_path;
  const auto usage_error = [](const std::string& why) {
    std::fprintf(stderr,
                 "bench_fleet: %s\n"
                 "usage: bench_fleet [--smoke | --validate | --list] "
                 "[--dir <d>] [output.json]\n",
                 why.c_str());
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--dir") {
      if (i + 1 == argc) return usage_error("'--dir' needs a directory");
      dir = argv[++i];
    } else if (arg.starts_with('-')) {
      return usage_error("unknown option '" + arg + "'");
    } else {
      out_path = arg;
    }
  }
  if (out_path.empty())
    out_path = smoke ? "BENCH_FLEET_smoke.json" : "BENCH_FLEET.json";

  try {
    const auto names = rem::scenario::list_scenario_names(dir);
    if (names.empty()) {
      std::printf("FAIL: no scenarios found in %s\n", dir.c_str());
      return 1;
    }
    std::printf("fleet sweep: %zu scenarios from %s%s%s\n", names.size(),
                dir.c_str(), smoke ? " [smoke]" : "",
                validate ? " [validate]" : "");

    rem::phy::LogisticBlerModel bler;

    if (list) {
      // Catalogue mode: name, world size, fault kinds exercised (scripted
      // windows plus random specs, deduplicated in enum order), and the
      // scenario's own acceptance gates. Compiling (rather than just
      // parsing) keeps the listing honest: a scenario that no longer
      // validates cannot appear in the catalogue.
      for (const auto& name : names) {
        const auto spec = rem::scenario::load_scenario(dir, name);
        const auto c = rem::scenario::compile(spec);
        std::set<rem::sim::FaultKind> kinds;
        for (const auto& w : c.scenario.sim.faults.windows)
          kinds.insert(w.kind);
        for (const auto& rf : c.scenario.sim.faults.random)
          kinds.insert(rf.kind);
        std::string kind_list;
        for (const auto k : kinds) {
          if (!kind_list.empty()) kind_list += ", ";
          kind_list += rem::sim::fault_kind_name(k);
        }
        if (kind_list.empty()) kind_list = "none";
        std::printf("%-28s %2d UEs %6.1f s  faults: %s\n", name.c_str(),
                    c.scenario.sim.fleet_size, c.scenario.sim.duration_s,
                    kind_list.c_str());
        std::printf("    %s\n", c.description.c_str());
        std::printf("    gates: max_rem_failure_ratio %.2f, rem_le_legacy "
                    "%s, min_legacy_handovers %d\n",
                    c.gates.max_rem_failure_ratio,
                    c.gates.rem_le_legacy ? "true" : "false",
                    c.gates.min_legacy_handovers);
      }
      std::printf("PASS: %zu scenarios listed\n", names.size());
      return 0;
    }

    if (validate) {
      // Compile everything at authored parameters — this is the
      // check_tier1 --scenarios step, so the configs that must hold are
      // the committed ones, not compressed variants.
      std::string shortest;
      double shortest_s = 0.0;
      for (const auto& name : names) {
        const auto spec = rem::scenario::load_scenario(dir, name);
        const auto c = rem::scenario::compile(spec);
        std::printf("  compiled %-28s %6.1f s, %2d UEs, %zu fault windows\n",
                    name.c_str(), c.scenario.sim.duration_s,
                    c.scenario.sim.fleet_size,
                    c.scenario.sim.faults.windows.size());
        if (shortest.empty() || c.scenario.sim.duration_s < shortest_s) {
          shortest = name;
          shortest_s = c.scenario.sim.duration_s;
        }
      }
      // End-to-end sanity on the shortest scenario, recompressed to stay
      // CI-sized; run_scenario attaches an InvariantChecker to every UE.
      const auto spec = rem::scenario::load_scenario(dir, shortest);
      rem::scenario::CompileOverrides ov;
      ov.extra_time_compression = extra_compression_for(spec,
                                                        kValidateHorizon_s);
      const auto r = run_scenario(rem::scenario::compile(spec, ov), bler);
      std::printf("  ran %s end-to-end: legacy %d HOs / %d failures, REM %d "
                  "HOs / %d failures\n",
                  shortest.c_str(), r.legacy.handovers, r.legacy.failures,
                  r.rem.handovers, r.rem.failures);
      std::printf("PASS: %zu scenarios compiled, '%s' ran clean\n",
                  names.size(), shortest.c_str());
      return 0;
    }

    // Each scenario builds its own world, checkers and streams, so it may
    // run on any worker.
    std::vector<ScenarioResult> results(names.size());
    rem::common::parallel_for(
        names.size(), rem::testkit::bench_threads(), [&](std::size_t i) {
          const auto spec = rem::scenario::load_scenario(dir, names[i]);
          rem::scenario::CompileOverrides ov;
          if (smoke)
            ov.extra_time_compression =
                extra_compression_for(spec, kSmokeHorizon_s);
          results[i] = run_scenario(rem::scenario::compile(spec, ov), bler);
        });
    rem::obs::MetricsSnapshot metrics;
    bool ok = true;
    for (const auto& r : results) {
      record_metrics(metrics, r);
      std::printf("%-28s %6.1f s %2d UEs | legacy %4d HO %3d fail (%.3f) | "
                  "REM %4d HO %3d fail (%.3f) | %s\n",
                  r.name.c_str(), r.duration_s, r.fleet_size,
                  r.legacy.handovers, r.legacy.failures,
                  r.legacy.failure_ratio, r.rem.handovers, r.rem.failures,
                  r.rem.failure_ratio, r.pass() ? "pass" : "FAIL");
      for (const auto& g : r.gate_failures)
        std::printf("  FAIL: %s\n", g.c_str());
      ok = ok && r.pass();
    }

    std::ofstream js(out_path);
    js << "{\n";
    js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    js << "  \"scenario_dir\": \"" << dir << "\",\n";
    js << "  \"scenarios\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      js << "    \"" << r.name << "\": {\"duration_s\": " << r.duration_s
         << ", \"fleet_size\": " << r.fleet_size
         << ", \"fault_windows\": " << r.fault_windows << ",\n";
      js << "      \"legacy\": ";
      write_manager_json(js, r.legacy);
      js << ",\n      \"rem\": ";
      write_manager_json(js, r.rem);
      js << ",\n      \"gates\": {\"max_rem_failure_ratio\": "
         << r.gates.max_rem_failure_ratio << ", \"rem_le_legacy\": "
         << (r.gates.rem_le_legacy ? "true" : "false")
         << ", \"min_legacy_handovers\": " << r.gates.min_legacy_handovers
         << ", \"pass\": " << (r.pass() ? "true" : "false") << "}}"
         << (i + 1 < results.size() ? "," : "") << "\n";
    }
    js << "  },\n";
    js << "  \"pass\": " << (ok ? "true" : "false") << "\n";
    js << "}\n";

    const std::string stem = out_path.size() > 5 && out_path.substr(
                                 out_path.size() - 5) == ".json"
                                 ? out_path.substr(0, out_path.size() - 5)
                                 : out_path;
    rem::obs::write_metrics_json_file(metrics, stem + "_metrics.json");

    std::printf("%s: %zu scenarios -> %s\n", ok ? "PASS" : "FAIL",
                results.size(), out_path.c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    return 1;
  }
}
