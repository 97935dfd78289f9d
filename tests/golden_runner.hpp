// Shared by test_golden_traces (replay-and-diff) and golden_gen
// (regeneration): exactly how a GoldenCase is executed and digested. Both
// sides must agree byte-for-byte, so the logic lives in one place.
#pragma once

#include "common/flat_json.hpp"
#include "fleet_runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"

#include <functional>
#include <sstream>
#include <utility>

namespace rem::testkit {

/// Run one corpus case (legacy + REM over golden_scenario(), invariant
/// checker attached) and produce its digest.
inline TraceDigest run_golden_case(const GoldenCase& c) {
  phy::LogisticBlerModel bler;
  const auto r = bench::run_seed(
      golden_scenario(c.route, c.speed_kmh, c.duration_s, c.fault_preset),
      c.seed, /*run_rem=*/true, bler);
  return make_digest(c, r.legacy, r.rem);
}

/// The corpus case whose traced run run_traced_golden_case digests: the
/// Beijing-Shanghai mixed-fault case, where every span histogram fills.
inline constexpr const char* kTracedGoldenCase = "bs_300_s6_mixed";

/// Run one corpus case through run_seed with the span tracer attached and
/// digest the metrics it returns: every rem-metrics-v1 key and value of
/// both managers, so a drift in any span histogram or published counter
/// names that metric.
inline TraceDigest run_traced_golden_case(const GoldenCase& c) {
  phy::LogisticBlerModel bler;
  const auto r = bench::run_seed(
      golden_scenario(c.route, c.speed_kmh, c.duration_s, c.fault_preset),
      c.seed, /*run_rem=*/true, bler, {/*collect_metrics=*/true});
  TraceDigest d;
  d.case_name = "metrics_" + c.name;
  for (const auto& [who, snap] :
       {std::pair{"legacy.", &r.legacy_metrics},
        std::pair{"rem.", &r.rem_metrics}}) {
    std::stringstream json;
    obs::write_metrics_json(*snap, json);
    for (auto& e : common::flat_json::read(json, "metrics"))
      d.fields.emplace_back(who + e.key, std::move(e.value));
  }
  return d;
}

/// Run one fleet corpus case (a legacy fleet and a REM fleet over
/// golden_scenario(), one invariant checker per UE) and produce its digest.
inline TraceDigest run_fleet_golden_case(const FleetGoldenCase& c) {
  phy::LogisticBlerModel bler;
  auto sc = golden_scenario(c.route, c.speed_kmh, c.duration_s, c.fault_preset);
  sc.sim.fleet_size = c.fleet_size;
  const bench::FleetScenarioRunOptions opts{"golden case " + c.name};
  const auto legacy = bench::run_fleet_scenario(sc, c.seed, bler, false, opts);
  const auto rem = bench::run_fleet_scenario(sc, c.seed, bler, true, opts);
  return make_fleet_digest(c, legacy, rem);
}

/// One replayable unit of the committed corpus. The generator and the
/// replay test both iterate golden_jobs(), so a case added to either
/// corpus is automatically generated and regression-checked.
struct GoldenJob {
  std::string name;
  std::function<TraceDigest()> run;
};

/// Compile one library scenario and digest its *configuration* (no
/// simulation): scenario compilation is a pure function of the JSON, so
/// these digests pin the whole compiler — layout shaping, time
/// compression, fault scaling, profile resolution — byte-for-byte.
inline TraceDigest run_scenario_golden_case(const std::string& dir,
                                            const std::string& name) {
  const auto spec = rem::scenario::load_scenario(dir, name);
  const auto compiled = rem::scenario::compile(spec);
  TraceDigest d;
  d.case_name = "scen_" + name;
  d.fields = rem::scenario::digest_fields(compiled);
  return d;
}

inline std::vector<GoldenJob> golden_jobs() {
  std::vector<GoldenJob> jobs;
  for (const auto& c : golden_corpus()) {
    jobs.push_back({c.name, [c] { return run_golden_case(c); }});
    if (c.name == kTracedGoldenCase)
      jobs.push_back(
          {"metrics_" + c.name, [c] { return run_traced_golden_case(c); }});
  }
  for (const auto& c : fleet_golden_corpus())
    jobs.push_back({c.name, [c] { return run_fleet_golden_case(c); }});
#ifdef REM_SCENARIO_DIR
  for (const auto& name : rem::scenario::list_scenario_names(REM_SCENARIO_DIR))
    jobs.push_back({"scen_" + name, [name] {
                      return run_scenario_golden_case(REM_SCENARIO_DIR, name);
                    }});
#endif
  return jobs;
}

}  // namespace rem::testkit
