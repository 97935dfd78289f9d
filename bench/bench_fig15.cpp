// Fig. 15: failures without aggressive (proactive) policies.
//
// Operators configure conflict-prone proactive policies to mitigate
// failures; REM removes them (Theorem-2-coordinated offsets) without
// paying a failure penalty. Compares, per speed bucket:
//   * legacy with the operators' proactive mix (baseline);
//   * legacy with Theorem-2-repaired (non-proactive) offsets;
//   * REM (conflict-free by construction).
#include "mobility/simplify.hpp"
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

namespace {

sim::SimStats run_legacy_repaired(const trace::Scenario& sc,
                                  std::uint64_t seed) {
  common::Rng rng(seed);
  auto world = trace::make_world(sc, rng);

  // Theorem-2 repair of the A3 offsets (lifts the proactive negatives).
  auto& policies = world.legacy.policies;
  auto pcs = trace::to_policy_cells(world.env.cells(), policies);
  mobility::coordinate_offsets(pcs);
  for (const auto& pc : pcs) policies[pc.id.cell] = pc.policy;

  phy::LogisticBlerModel bler;
  core::LegacyManager mgr(world.legacy);
  sim::Simulator s(world.env, sc.sim, bler, rng.fork());
  return s.run(mgr);
}

}  // namespace

int main() {
  std::printf("Fig. 15: failure ratio w/o coverage holes, with and without "
              "aggressive policies\n");
  std::printf("  %-14s %14s %15s %10s\n", "speed", "OFDM proactive",
              "OFDM repaired", "REM");
  const struct {
    const char* label;
    double speed;
  } buckets[] = {{"<200 km/h", 150.0},
                 {"200-300 km/h", 250.0},
                 {"300-350 km/h", 330.0}};
  const std::vector<std::uint64_t> seeds = {41, 42};
  for (const auto& b : buckets) {
    const auto sc =
        trace::make_scenario(trace::Route::kBeijingShanghai, b.speed, 1500.0);
    const auto base = bench::run_route(sc, seeds);
    bench::AggregateStats repaired;
    for (const auto seed : seeds) repaired.add(run_legacy_repaired(sc, seed));
    std::printf("  %-14s %13.2f%% %14.2f%% %9.2f%%\n", b.label,
                bench::pct(base.legacy.failure_ratio_excluding_holes()),
                bench::pct(repaired.failure_ratio_excluding_holes()),
                bench::pct(base.rem.failure_ratio_excluding_holes()));
  }
  std::printf(
      "\nPaper reference (Fig. 15): removing the conflict-prone proactive "
      "policies does not\nraise REM's failures — fast feedback and OTFS "
      "signaling replace the proactive gamble.\n");
  return 0;
}
