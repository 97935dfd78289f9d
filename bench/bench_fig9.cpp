// Fig. 9: REM's benefit for TCP.
//  (a) TCP stall time per radio failure, legacy vs REM, at 200 and 300 km/h;
//  (b) one annotated failure timeline showing RTO amplification.
#include "scenario_runner.hpp"
#include "sim/tcp.hpp"

#include <cstdio>

using namespace rem;

namespace {

common::Summary stalls_for(const std::vector<double>& outages,
                           common::Rng& rng) {
  std::vector<double> phases;
  phases.reserve(outages.size());
  for (std::size_t i = 0; i < outages.size(); ++i)
    phases.push_back(rng.uniform(0.0, 1.0));
  common::Summary s;
  s.add_all(sim::tcp_stalls(outages, phases));
  return s;
}

}  // namespace

int main() {
  std::printf("Fig. 9a: TCP stall time per radio failure (s)\n");
  std::printf("  %-10s %10s %10s\n", "speed", "Legacy", "REM");
  common::Rng rng(17);
  for (double speed : {200.0, 300.0}) {
    const auto run = bench::run_route(
        trace::make_scenario(trace::Route::kBeijingShanghai, speed, 2000.0),
        {21, 22, 23}, true, testkit::bench_threads());
    const auto& lg_outages = run.legacy.total.outage_durations_s;
    const auto& rm_outages = run.rem.total.outage_durations_s;
    const auto lg = stalls_for(lg_outages, rng);
    const auto rm = stalls_for(rm_outages, rng);
    std::printf("  %-10.0f %9.1fs %9.1fs   (outages: %zu vs %zu)\n", speed,
                lg.empty() ? 0.0 : lg.mean(), rm.empty() ? 0.0 : rm.mean(),
                lg_outages.size(), rm_outages.size());
  }

  // ---- (b) one annotated failure ----
  std::printf("\nFig. 9b: TCP timeline through one handover failure\n");
  const double outage = 2.3;  // radio connectivity gap (fail + re-establish)
  const double stall = sim::tcp_stall_for_outage(outage, 0.25);
  std::printf("  t=0.00s  handover fails, radio link lost\n");
  std::printf("  t=%.2fs  TCP retransmissions backing off (RTO doubling "
              "from %.2fs)\n",
              sim::kTcpBaseRto_s, sim::kTcpBaseRto_s);
  std::printf("  t=%.2fs  radio connection re-established\n", outage);
  std::printf("  t=%.2fs  next TCP retransmission fires, throughput "
              "recovers\n",
              stall);
  std::printf("  -> %.1fs radio outage amplified to %.1fs TCP stall\n",
              outage, stall);
  std::printf(
      "\nPaper reference (Fig. 9): average stall 7.9 -> 4.2 s at 200 km/h "
      "and 6.6 -> 4.5 s at\n300 km/h; a ~2 s radio gap stalls TCP for ~9 s "
      "via RTO backoff.\n");
  return 0;
}
