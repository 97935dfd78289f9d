// Shared helper for fleet-scale benches and tests: run a multi-UE fleet
// over one fully specified scenario through Simulator::run_fleet, with a
// per-UE invariant checker demuxed over the observer stream.
//
// The world comes from trace::make_world, whose doc comment holds the
// construction-order contract this runner follows. Like run_seed, a fleet
// run is deterministic in (scenario, seed, manager family): per-seed
// results merged in seed order are bit-identical for any thread count
// (tests/test_fleet.cpp pins 1/2/8 threads).
#pragma once

#include "scenario_runner.hpp"
#include "sim/fleet.hpp"

#include <memory>
#include <utility>

namespace rem::bench {

struct FleetScenarioRunOptions {
  /// Human context for violation messages, completing the sentence
  /// "invariant violations in UE k of <context>".
  std::string context = "a fleet run";
};

/// Run one fleet over a fully specified scenario: `sc.sim` carries
/// fleet_size, fleet derivation, faults, transports, BS capacity and event
/// recording (a compiled rem::scenario world, or hand assembly). Every UE
/// runs REM (client-driven, cross-band) when `use_rem`, legacy 4G/5G
/// policies otherwise. One testkit::InvariantChecker per UE (via
/// sim::UeObserverDemux) plus the post-run fleet_invariant_report check the
/// run; any violation throws std::logic_error. Returns per-UE stats indexed
/// by UE id plus the UE-order aggregate (sim/fleet.hpp).
inline sim::FleetResult run_fleet_scenario(
    const trace::Scenario& sc, std::uint64_t seed, const phy::BlerModel& bler,
    bool use_rem, const FleetScenarioRunOptions& opts = {}) {
  common::Rng rng(seed);
  const auto world = trace::make_world(sc, rng);
  // The fork order trace::make_world documents: the manager master stream,
  // then the simulation stream.
  common::Rng mgr_rng = rng.fork();
  common::Rng sim_rng = rng.fork();

  const int fleet_size = sc.sim.fleet_size;
  testkit::CheckerConfig ccfg;
  ccfg.sim = sc.sim;
  ccfg.num_cells = world.env.cells().size();
  ccfg.faults_expected = !sc.sim.faults.empty();
  if (use_rem)
    ccfg.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
  else
    ccfg.expect_no_degraded = true;  // legacy has no fallback mode
  sim::UeObserverDemux demux;
  std::vector<std::unique_ptr<testkit::InvariantChecker>> checkers;
  checkers.reserve(static_cast<std::size_t>(fleet_size));
  for (int k = 0; k < fleet_size; ++k) {
    checkers.push_back(std::make_unique<testkit::InvariantChecker>(ccfg));
    demux.add(checkers.back().get());
  }
  sim::SimConfig run_cfg = sc.sim;
  run_cfg.observer = &demux;

  sim::Simulator s(world.env, run_cfg, bler, std::move(sim_rng));
  auto result = s.run_fleet([&](int) -> std::unique_ptr<sim::MobilityManager> {
    if (use_rem)
      return std::make_unique<core::RemManager>(core::RemConfig{},
                                                mgr_rng.fork());
    return std::make_unique<core::LegacyManager>(world.legacy);
  });

  for (int k = 0; k < fleet_size; ++k) {
    const auto& checker = *checkers[static_cast<std::size_t>(k)];
    if (checker.violation_count() > 0)
      throw std::logic_error("invariant violations in UE " +
                             std::to_string(k) + " of " + opts.context +
                             ":\n" + checker.report());
  }
  const auto fleet_violations = testkit::fleet_invariant_report(result);
  if (!fleet_violations.empty()) {
    std::string msg =
        "fleet invariant violations in the aggregate of " + opts.context;
    for (const auto& line : fleet_violations) msg += "\n  " + line;
    throw std::logic_error(msg);
  }
  return result;
}

}  // namespace rem::bench
