#include "trace/scenario.hpp"

#include "common/units.hpp"

#include <utility>

namespace rem::trace {

namespace rm = rem::mobility;

namespace {

/// Sampled intra/inter-frequency A3 offset ranges (dB): proactive cells
/// draw from the negative band, the others from the positive one.
constexpr double kProactiveOffsetLo = -3.0;
constexpr double kProactiveOffsetHi = -0.5;
constexpr double kNormalOffsetLo = 1.0;
constexpr double kNormalOffsetHi = 3.0;
/// A4 threshold range (dBm), shared by the A5 pairs' second threshold.
constexpr double kA4ThresholdLo = -112.0;
constexpr double kA4ThresholdHi = -104.0;
/// Multi-stage: A2 guard threshold range (dBm) into the inter-frequency
/// stage.
constexpr double kA2GuardLo = -114.0;
constexpr double kA2GuardHi = -106.0;

}  // namespace

std::string route_name(Route r) {
  switch (r) {
    case Route::kLowMobilityLA: return "Low mobility (LA)";
    case Route::kBeijingTaiyuan: return "Beijing-Taiyuan";
    case Route::kBeijingShanghai: return "Beijing-Shanghai";
  }
  return "?";
}

Scenario make_scenario(Route route, double speed_kmh, double duration_s) {
  Scenario s;
  s.route = route;
  s.speed_kmh = speed_kmh;

  // Deployment density: the Table 2 handover intervals (50.2 s at
  // 0-100 km/h down to 11.3 s at 300-350 km/h) pin the site spacing to
  // roughly speed * interval.
  const double speed_mps = common::kmh_to_mps(speed_kmh);
  double target_interval_s;
  if (speed_kmh < 150.0)
    target_interval_s = 50.0;
  else if (speed_kmh < 250.0)
    target_interval_s = 20.4;
  else if (speed_kmh < 320.0)
    target_interval_s = 19.3;
  else
    target_interval_s = 11.3;
  s.deployment.site_spacing_mean_m =
      std::max(400.0, speed_mps * target_interval_s);
  s.deployment.site_spacing_jitter_m =
      s.deployment.site_spacing_mean_m * 0.2;
  s.deployment.route_len_m =
      speed_mps * duration_s + 2.0 * s.deployment.site_spacing_mean_m;

  switch (route) {
    case Route::kLowMobilityLA:
      s.deployment.channels = {{5230, 0.7315e9}, {1825, 1.88e9},
                               {2452, 2.36e9}};
      s.deployment.holes_per_km = 0.006;
      s.policy_mix.proactive_a3_prob = 0.0;  // no failure pressure
      s.policy_mix.load_balance_a4_prob = 0.15;
      s.policy_mix.intra_ttt_s = 0.128;
      s.policy_mix.inter_ttt_s = 0.640;
      break;
    case Route::kBeijingTaiyuan:
      s.deployment.channels = {{1825, 0.8742e9}, {2452, 1.88e9},
                               {100, 2.12e9}};
      s.deployment.holes_per_km = 0.016;  // mountainous route
      s.policy_mix.proactive_a3_prob = 0.65;
      s.policy_mix.load_balance_a4_prob = 0.10;
      break;
    case Route::kBeijingShanghai:
      s.deployment.channels = {{1825, 1.835e9}, {2452, 2.665e9},
                               {100, 2.11e9}};
      s.deployment.holes_per_km = 0.009;
      s.policy_mix.proactive_a3_prob = 0.55;
      s.policy_mix.load_balance_a4_prob = 0.30;  // more A4 conflicts [6]
      break;
  }

  s.sim.speed_kmh = speed_kmh;
  s.sim.duration_s = duration_s;
  return s;
}

std::map<int, rm::CellPolicy> synthesize_policies(
    const std::vector<sim::Cell>& cells, const PolicyMix& mix,
    common::Rng& rng) {
  std::map<int, rm::CellPolicy> out;
  for (const auto& cell : cells) {
    rm::CellPolicy p;

    // Stage 0: intra-frequency A3 (proactive for a §3.2-style fraction).
    rm::PolicyRule intra;
    intra.stage = 0;
    intra.channel = rm::PolicyRule::kServingChannel;
    intra.event.type = rm::EventType::kA3;
    intra.event.offset =
        rng.bernoulli(mix.proactive_a3_prob)
            ? rng.uniform(kProactiveOffsetLo, kProactiveOffsetHi)
            : rng.uniform(kNormalOffsetLo, kNormalOffsetHi);
    intra.event.hysteresis =
        intra.event.offset < 0.0 ? 0.5 : 1.5;  // proactive cells gamble
    intra.event.time_to_trigger_s = mix.intra_ttt_s;
    p.rules.push_back(intra);

    // Stage 0: A2 guard into the inter-frequency stage.
    rm::PolicyRule guard;
    guard.stage = 0;
    guard.event.type = rm::EventType::kA2;
    guard.event.threshold1 = rng.uniform(kA2GuardLo, kA2GuardHi);
    guard.event.time_to_trigger_s = mix.intra_ttt_s;
    guard.action = rm::PolicyAction::kReconfigure;
    guard.next_stage = 1;
    p.rules.push_back(guard);

    // Stage 1: inter-frequency rule toward foreign channels. Operators
    // mix A4 thresholds, A5 pairs, and inter-frequency A3 offsets (the
    // source of Table 3's A3-A4/A3-A5 inter-frequency classes).
    rm::PolicyRule inter;
    inter.stage = 1;
    inter.channel = rm::PolicyRule::kOtherChannels;
    const double inter_kind = rng.uniform(0.0, 1.0);
    if (inter_kind < 0.40) {
      inter.event.type = rm::EventType::kA4;
      inter.event.threshold1 = rng.uniform(kA4ThresholdLo, kA4ThresholdHi);
    } else if (inter_kind < 0.65) {
      inter.event.type = rm::EventType::kA5;
      inter.event.threshold1 = guard.event.threshold1;
      inter.event.threshold2 = rng.uniform(kA4ThresholdLo, kA4ThresholdHi);
    } else {
      inter.event.type = rm::EventType::kA3;
      inter.event.offset =
          rng.bernoulli(mix.proactive_a3_prob)
              ? rng.uniform(kProactiveOffsetLo, kProactiveOffsetHi)
              : rng.uniform(kNormalOffsetLo, kNormalOffsetHi);
      inter.event.hysteresis = 1.0;
    }
    inter.event.time_to_trigger_s = mix.inter_ttt_s;
    p.rules.push_back(inter);

    // Optional direct load-balancing A4 (Fig. 3: no A2 prerequisite).
    if (rng.bernoulli(mix.load_balance_a4_prob)) {
      rm::PolicyRule lb;
      lb.stage = 0;
      lb.channel = rm::PolicyRule::kOtherChannels;
      lb.event.type = rng.bernoulli(0.7) ? rm::EventType::kA4
                                         : rm::EventType::kA5;
      lb.event.threshold1 = rng.uniform(kA4ThresholdLo, kA4ThresholdHi);
      lb.event.threshold2 = lb.event.threshold1 + rng.uniform(0.0, 6.0);
      if (lb.event.type == rm::EventType::kA5) {
        // A5: serving below t1, neighbor above t2 (Fig. 3's cell 2).
        lb.event.threshold1 = rng.uniform(-100.0, -92.0);
        lb.event.threshold2 = rng.uniform(-106.0, -98.0);
      }
      lb.event.time_to_trigger_s = mix.inter_ttt_s;
      p.rules.push_back(lb);
    }
    out[cell.id.cell] = std::move(p);
  }
  return out;
}

World make_world(const Scenario& sc, common::Rng& rng) {
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  sim::RadioEnv env(std::move(cells), sc.propagation, rng.fork(), holes);
  core::LegacyConfig legacy;
  legacy.policies = synthesize_policies(env.cells(), sc.policy_mix, rng);
  legacy.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  legacy.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;
  return {std::move(holes), std::move(env), std::move(legacy)};
}

std::vector<rm::PolicyCell> to_policy_cells(
    const std::vector<sim::Cell>& cells,
    const std::map<int, rm::CellPolicy>& policies) {
  std::vector<rm::PolicyCell> out;
  out.reserve(cells.size());
  for (const auto& c : cells) {
    rm::PolicyCell pc;
    pc.id = c.id;
    const auto it = policies.find(c.id.cell);
    if (it != policies.end()) pc.policy = it->second;
    out.push_back(std::move(pc));
  }
  return out;
}

}  // namespace rem::trace
