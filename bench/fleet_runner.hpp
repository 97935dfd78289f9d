// Shared helper for fleet-scale benches and tests: build one scenario and
// run a multi-UE fleet through Simulator::run_fleet with a per-UE
// invariant checker demuxed over the observer stream.
//
// Construction order is fixed and documented because tests pin bit-exact
// reproducibility against it:
//   common::Rng rng(seed)
//     -> make_rail_deployment(rng) -> make_hole_segments(rng)
//     -> RadioEnv(cells, propagation, rng.fork(), holes)
//     -> synthesize_policies(cells, mix, rng)
//     -> manager master stream  = rng.fork()   (one fork per UE, in order)
//     -> simulation stream      = rng.fork()
// The manager master stream is forked *before* the simulation stream so
// that per-UE manager construction (REM managers fork once per UE) never
// interleaves with the simulator's own draw order: a fleet of one built
// this way is bit-identical to a single-UE Simulator::run over the same
// streams, whatever fleet_size later runs use.
//
// Entry points:
//   run_fleet_scenario — run a fully specified trace::Scenario (the
//     sim config carries fleet size, faults, transports); this is what
//     compiled rem::scenario worlds execute through.
//   run_fleet_seed     — legacy convenience: assemble the scenario from
//     (route, speed, duration) + option overrides, then delegate.
//
// Like run_seed, a fleet run is deterministic in (scenario, seed,
// options): per-seed results merged in seed order are bit-identical for
// any thread count (tests/test_fleet.cpp pins 1/2/8 threads).
#pragma once

#include "scenario_runner.hpp"
#include "sim/fleet.hpp"

#include <memory>
#include <utility>

namespace rem::bench {

struct FleetScenarioRunOptions {
  /// Manager family for every UE: REM (client-driven, cross-band) when
  /// true, legacy 4G/5G policies otherwise.
  bool use_rem = true;
  bool record_events = false;
  /// Attach one testkit::InvariantChecker per UE (via sim::UeObserverDemux)
  /// plus the post-run fleet_invariant_report, throwing std::logic_error on
  /// any violation. Honors the REM_CHECK_INVARIANTS=0 kill switch.
  bool check_invariants = true;
  /// Human context for violation messages, completing the sentence
  /// "invariant violations in UE k of <context>".
  std::string context = "a fleet run";
};

/// Run one fleet over a fully specified scenario: `sc.sim` already
/// carries fleet_size, fleet derivation, faults, backhaul, and BS
/// capacity (a compiled rem::scenario world, or hand assembly). Returns
/// per-UE stats indexed by UE id plus the UE-order aggregate
/// (sim/fleet.hpp).
inline sim::FleetResult run_fleet_scenario(const trace::Scenario& sc,
                                           std::uint64_t seed,
                                           const phy::BlerModel& bler,
                                           const FleetScenarioRunOptions& opts) {
  common::Rng rng(seed);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  sim::RadioEnv env(cells, sc.propagation, rng.fork(), holes);
  auto policies = trace::synthesize_policies(cells, sc.policy_mix, rng);

  core::LegacyConfig lc;
  lc.policies = policies;
  lc.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  lc.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;

  common::Rng mgr_rng = rng.fork();  // manager master stream (see header)
  common::Rng sim_rng = rng.fork();  // simulation stream

  const int fleet_size = sc.sim.fleet_size;
  const bool check = opts.check_invariants && testkit::invariants_enabled();
  sim::UeObserverDemux demux;
  std::vector<std::unique_ptr<testkit::InvariantChecker>> checkers;
  sim::SimConfig run_cfg = sc.sim;
  run_cfg.record_events = run_cfg.record_events || opts.record_events;
  if (check) {
    testkit::CheckerConfig ccfg;
    ccfg.sim = run_cfg;
    ccfg.num_cells = cells.size();
    ccfg.faults_expected = !run_cfg.faults.empty();
    if (opts.use_rem)
      ccfg.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
    else
      ccfg.expect_no_degraded = true;  // legacy has no fallback mode
    checkers.reserve(static_cast<std::size_t>(fleet_size));
    for (int k = 0; k < fleet_size; ++k) {
      checkers.push_back(std::make_unique<testkit::InvariantChecker>(ccfg));
      demux.add(checkers.back().get());
    }
    run_cfg.observer = &demux;
  }

  sim::Simulator s(env, run_cfg, bler, std::move(sim_rng));
  auto result = s.run_fleet([&](int) -> std::unique_ptr<sim::MobilityManager> {
    if (opts.use_rem)
      return std::make_unique<core::RemManager>(core::RemConfig{},
                                                mgr_rng.fork());
    return std::make_unique<core::LegacyManager>(lc);
  });

  if (check) {
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
  }
  return result;
}

struct FleetRunOptions {
  /// Number of UEs; UE 0 rides the scenario's exact single-UE parameters.
  int fleet_size = 8;
  /// Manager family for every UE: REM (client-driven, cross-band) when
  /// true, legacy 4G/5G policies otherwise.
  bool use_rem = true;
  sim::FaultConfig faults;
  bool record_events = false;
  /// Attach one testkit::InvariantChecker per UE (via sim::UeObserverDemux)
  /// plus the post-run fleet_invariant_report, throwing std::logic_error on
  /// any violation. Honors the REM_CHECK_INVARIANTS=0 kill switch.
  bool check_invariants = true;
  std::optional<net::BackhaulConfig> backhaul;
  std::optional<sim::BsCapacityConfig> bs_capacity;
  /// Per-UE speed/start derivation; scenario default when unset.
  std::optional<sim::FleetConfig> fleet;
  /// Cascade-resilience knobs (defaults mirror sim::SimConfig: everything
  /// off, so leaving them alone changes nothing).
  double load_ad_staleness_s = 0.0;
  int breaker_trip_k = 0;
  double breaker_cooldown_s = 2.0;
  double storm_jitter_frac = 0.0;
};

/// Run one fleet over the scenario named by (route, speed, duration) with
/// deterministic per-UE RNG derivation from `seed`. Assembles the
/// trace::Scenario from the options and delegates to run_fleet_scenario.
inline sim::FleetResult run_fleet_seed(trace::Route route, double speed_kmh,
                                       double duration_s, std::uint64_t seed,
                                       const phy::BlerModel& bler,
                                       const FleetRunOptions& opts) {
  auto sc = trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.faults = opts.faults;
  sc.sim.record_events = sc.sim.record_events || opts.record_events;
  if (opts.backhaul) sc.sim.backhaul = *opts.backhaul;
  if (opts.bs_capacity) sc.sim.bs_capacity = *opts.bs_capacity;
  if (opts.fleet) sc.sim.fleet = *opts.fleet;
  sc.sim.fleet_size = opts.fleet_size;
  sc.sim.load_ad_staleness_s = opts.load_ad_staleness_s;
  sc.sim.breaker_trip_k = opts.breaker_trip_k;
  sc.sim.breaker_cooldown_s = opts.breaker_cooldown_s;
  sc.sim.storm_jitter_frac = opts.storm_jitter_frac;

  FleetScenarioRunOptions so;
  so.use_rem = opts.use_rem;
  so.record_events = opts.record_events;
  so.check_invariants = opts.check_invariants;
  so.context = "a " + std::to_string(opts.fleet_size) +
               "-UE fleet (route " + trace::route_name(route) + ", " +
               std::to_string(speed_kmh) + " km/h, seed " +
               std::to_string(seed) + ")";
  return run_fleet_scenario(sc, seed, bler, so);
}

}  // namespace rem::bench
