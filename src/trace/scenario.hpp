// Synthetic dataset / scenario generation.
//
// The paper evaluates against operational LTE captures (Table 4:
// Beijing-Taiyuan, Beijing-Shanghai, LA driving). Those traces are not
// redistributable, so this module synthesizes scenarios calibrated to the
// published statistics: handover intervals per speed bucket (Table 2),
// cell/site ratios and carrier plans (Table 4), operator policy mixes
// (multi-stage + proactive A3 + load-balancing A4/A5, §3.2). The
// simulator then exercises exactly the code paths the real traces would.
#pragma once

#include "common/rng.hpp"
#include "core/legacy_manager.hpp"
#include "mobility/conflict.hpp"
#include "mobility/policy.hpp"
#include "sim/radio_env.hpp"
#include "sim/simulator.hpp"

#include <map>
#include <string>
#include <vector>

namespace rem::trace {

enum class Route {
  kLowMobilityLA,     ///< 0-100 km/h driving baseline
  kBeijingTaiyuan,    ///< fine-grained HSR, 200-300 km/h
  kBeijingShanghai,   ///< coarse-grained HSR, 200-350 km/h
};

std::string route_name(Route r);

/// How operator policies are sampled (§3.2 behaviours).
struct PolicyMix {
  /// Fraction of cells with a *proactive* intra-frequency A3 (offset < 0,
  /// the failure-mitigation practice that amplifies conflicts, Fig. 4).
  double proactive_a3_prob = 0.5;
  /// Fraction of cells with a load-balancing direct A4 toward another
  /// channel (the Fig. 3 conflict source).
  double load_balance_a4_prob = 0.25;
  double intra_ttt_s = 0.040;   ///< operator-shortened HSR values (§3.1)
  double inter_ttt_s = 0.640;
};

struct Scenario {
  Route route;
  double speed_kmh;
  sim::DeploymentConfig deployment;
  sim::PropagationConfig propagation;
  PolicyMix policy_mix;
  sim::SimConfig sim;
};

/// Preset scenario for a route at a given speed bucket (speed in km/h is
/// the bucket midpoint; deployment density scales so handover intervals
/// land in Table 2's range).
Scenario make_scenario(Route route, double speed_kmh,
                       double duration_s = 2000.0);

/// Sample legacy multi-stage policies for every cell of a deployment
/// (Fig. 1b shape + §3.2 proactive/load-balancing behaviours).
std::map<int, mobility::CellPolicy> synthesize_policies(
    const std::vector<sim::Cell>& cells, const PolicyMix& mix,
    common::Rng& rng);

/// One seed's drawn world: the deployment inside `env`, the coverage-hole
/// segments it was built with, and the legacy manager's configuration.
struct World {
  std::vector<sim::HoleSegment> holes;
  sim::RadioEnv env;  ///< env.cells() is the deployment
  /// The synthesized operator policies plus the route's measurement TTTs
  /// (PolicyMix::intra_ttt_s / inter_ttt_s).
  core::LegacyConfig legacy;
};

/// Draw a scenario's world from `rng`. This is the only code that draws
/// one, in this fixed order:
///   make_rail_deployment(rng) -> make_hole_segments(rng)
///     -> RadioEnv(cells, propagation, rng.fork(), holes)
///     -> synthesize_policies(cells, mix, rng)
/// Legacy and REM runs built from the same seed therefore replay the same
/// timeline, and the golden corpus pins this order bit-for-bit.
///
/// The caller's later forks of `rng` stay at its call site. The conventions
/// the harnesses pin:
///  - bench::run_seed forks the legacy simulation stream, then REM's
///    manager stream, then REM's simulation stream.
///  - bench::run_fleet_scenario forks the manager master stream (one fork
///    per UE, in UE order), then the simulation stream. Forking the master
///    stream first keeps per-UE manager construction out of the
///    simulator's draw order, so a fleet of one is bit-identical to a
///    single-UE Simulator::run over the same two streams.
World make_world(const Scenario& sc, common::Rng& rng);

/// Mobility::PolicyCell view of a deployment + policy map (input to the
/// conflict analyzer, Table 3).
std::vector<mobility::PolicyCell> to_policy_cells(
    const std::vector<sim::Cell>& cells,
    const std::map<int, mobility::CellPolicy>& policies);

}  // namespace rem::trace
