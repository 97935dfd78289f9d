// Declarative scenario compiler (SCENARIOS.md documents the schema and
// the shipped library under scenarios/).
//
// A scenario is a flat-JSON description — one `"key": "value"` pair per
// line, on the shared codec in common/flat_json.hpp — of one complete
// evaluation world: route preset, BS deployment layout, a
// mixed-speed UE population, a fault schedule over any of the twelve
// FaultKinds (with correlated-fault domain knobs for region_outage /
// cascade_overload), cascade-resilience knobs (load advertisement,
// circuit breakers, storm damping), backhaul transport parameters
// (including per-link asymmetry), a per-BS capacity profile, time
// compression, and the acceptance gates bench_fleet enforces when it
// sweeps the library.
//
// The compiler turns that description into a fully validated
// trace::Scenario (DeploymentConfig + PropagationConfig + PolicyMix +
// SimConfig with FleetConfig): every field is range-checked, fault
// schedules go through FaultInjector's reject-with-context validation,
// backhaul and BS-capacity configs go through their own validators, and
// contradictions (overlapping scripted windows, class counts that do not
// sum to the fleet size, unknown keys, out-of-range speeds) are rejected
// with the offending key and scenario named — a scenario can be wrong,
// but never silently wrong.
//
// Determinism: compilation is a pure function of the spec (plus the
// overrides), so the golden corpus pins a digest of every compiled
// library scenario (tests/golden/scen_*.json) and any compiler drift
// shows up as a named field diff.
#pragma once

#include "trace/scenario.hpp"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rem::scenario {

/// BS deployment geometry families the compiler can synthesize. Each maps
/// to a DeploymentConfig/PropagationConfig adjustment on top of the route
/// preset (see apply_layout / SCENARIOS.md for the exact parameter sets).
enum class Layout {
  kRailLinear,     ///< the paper's HSR corridor (route preset untouched)
  kUrbanCanyon,    ///< street-canyon macro grid: tight sites, heavy shadowing
  kDenseSmallCell, ///< low-power small cells a few hundred metres apart
};

std::string layout_name(Layout l);
Layout layout_from_name(const std::string& name);

/// Stable wire name of a route preset ("la", "beijing_taiyuan",
/// "beijing_shanghai") — the scenario JSON vocabulary, round-trip safe.
std::string route_wire_name(trace::Route r);
trace::Route route_from_wire_name(const std::string& name);

/// Per-scenario acceptance gates, enforced by bench_fleet for every
/// library scenario (a scenario ships with its own pass criteria).
struct ScenarioGates {
  /// REM's aggregate failure ratio must stay at or below this.
  double max_rem_failure_ratio = 1.0;
  /// REM's aggregate failure ratio must not exceed legacy's.
  bool rem_le_legacy = true;
  /// The legacy fleet must attempt at least this many handovers — a
  /// scenario that provokes no mobility is rot, not a pass.
  int min_legacy_handovers = 1;
};

/// Parsed (not yet compiled) scenario description. Field defaults are
/// the schema defaults: a key omitted from the JSON leaves its field at
/// the value below.
struct ScenarioSpec {
  std::string name;         ///< [a-z0-9_]+, must match the file basename
  std::string description;  ///< one-line human summary (required)
  std::string paper_ref;    ///< paper figure/table this generalizes
  trace::Route route = trace::Route::kBeijingShanghai;
  Layout layout = Layout::kRailLinear;
  double speed_kmh = 300.0;      ///< UE 0 (reference UE) speed
  double duration_s = 120.0;     ///< wall of simulated seconds *before*
                                 ///< time compression
  double time_compression = 1.0; ///< >0; compiled horizon = duration_s / tc
  std::uint64_t seed = 1;

  // --- UE population ---
  int ue_count = 1;
  double start_spread_m = 2000.0;
  /// Plain single-band form (used when `classes` is empty).
  double ue_speed_lo_kmh = 200.0;
  double ue_speed_hi_kmh = 350.0;
  /// Mixed-speed class form; counts must sum to ue_count.
  std::vector<sim::FleetSpeedClass> classes;

  // --- fault schedule (uncompressed timeline) ---
  std::vector<sim::FaultWindow> faults;
  std::vector<sim::RandomFaultSpec> rfaults;
  /// Correlated-fault domain knobs (region_outage / cascade_overload),
  /// defaulting to sim::FaultConfig's. The stagger lives on the
  /// uncompressed timeline like the windows.
  int fault_domain_size = sim::FaultConfig{}.domain_size;
  double region_stagger_s = sim::FaultConfig{}.region_stagger_s;
  int cascade_neighbor_radius = sim::FaultConfig{}.cascade_neighbor_radius;

  // --- cascade-resilience knobs, defaulting to sim::SimConfig's:
  // everything off, so omitting the keys changes nothing ---
  double load_ad_staleness_s = sim::SimConfig{}.load_ad_staleness_s;
  int breaker_trip_k = sim::SimConfig{}.breaker_trip_k;
  double breaker_cooldown_s = sim::SimConfig{}.breaker_cooldown_s;
  double storm_jitter_frac = sim::SimConfig{}.storm_jitter_frac;

  // --- transports / BS capacity ---
  net::BackhaulConfig backhaul;
  std::string bs_profile = "macro";  ///< macro | small_cell | edge
  sim::BsCapacityConfig bs_capacity; ///< profile preset + overrides

  ScenarioGates gates;
};

/// Runtime knobs applied before compilation (bench_fleet --smoke and the
/// bench_chaos fleet section use these instead of editing JSON files).
struct CompileOverrides {
  /// Extra time compression multiplied onto the spec's own factor.
  std::optional<double> extra_time_compression;
  /// Replaces the spec's UE count. Only valid for plain-band populations
  /// (a class mix pins its own counts); rejected otherwise.
  std::optional<int> ue_count;
  /// Replaces the spec's pre-compression duration.
  std::optional<double> duration_s;
};

/// A validated, runnable scenario: the trace::Scenario carries the full
/// deployment/propagation/policy/sim configuration (fleet knobs
/// included); `scenario.sim.duration_s` is the compressed horizon.
struct CompiledScenario {
  std::string name;
  std::string description;
  std::string paper_ref;
  trace::Scenario scenario;
  std::uint64_t seed = 1;
  ScenarioGates gates;
};

/// Parse one flat-JSON scenario. Rejects — std::runtime_error with line
/// number and content — anything the schema does not define: unknown
/// keys, duplicate keys, malformed values, a missing schema/name/
/// description, or contradictory population forms (both a plain speed
/// band and class counts).
ScenarioSpec read_scenario_json(std::istream& is);
ScenarioSpec read_scenario_json_file(const std::string& path);

/// Canonical emission: every schema key, in fixed order, current values.
/// read(write(spec)) == spec (the round-trip test pins this). Throws
/// std::invalid_argument naming the key if a string field holds a newline.
void write_scenario_json(const ScenarioSpec& spec, std::ostream& os);
std::string write_scenario_json(const ScenarioSpec& spec);

/// Compile a spec into a validated runnable scenario. Throws
/// std::invalid_argument naming the scenario and the offending field on
/// out-of-range values, fault-schedule violations (via FaultInjector's
/// validation), invalid backhaul or BS-capacity configs, or class counts
/// that do not sum to the UE count.
CompiledScenario compile(const ScenarioSpec& spec,
                         const CompileOverrides& overrides = {});

/// Every compiled field as ordered (name, value) string pairs — integers
/// in decimal, doubles as %.17g — the golden-digest payload for
/// scen_*.json pins. Purely a function of the compiled scenario.
std::vector<std::pair<std::string, std::string>> digest_fields(
    const CompiledScenario& c);

/// Sorted basenames (no .json suffix) of every scenario file in `dir`.
/// Throws std::runtime_error when the directory cannot be read.
std::vector<std::string> list_scenario_names(const std::string& dir);

/// Load + parse `dir/<name>.json`, enforcing that the file's `name` field
/// matches the basename.
ScenarioSpec load_scenario(const std::string& dir, const std::string& name);

}  // namespace rem::scenario
