// Fig. 2: Unreliable handover triggering & execution (legacy).
//  (a) measurement feedback delay CDF, HSR vs driving;
//  (b) block error rate CDF for uplink feedback and downlink handover
//      commands in the SNR window preceding failures.
#include "phy/bler_model.hpp"
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

int main() {
  // ---- (a) feedback delay CDFs from the full simulator ----
  const auto hsr = bench::run_route(
      trace::make_scenario(trace::Route::kBeijingShanghai, 300.0, 1500.0),
      {1, 2}, /*run_rem=*/false);
  const auto drive = bench::run_route(
      trace::make_scenario(trace::Route::kLowMobilityLA, 60.0, 1500.0), {1, 2},
      /*run_rem=*/false);

  std::printf("Fig. 2a: measurement feedback delay CDF (legacy)\n");
  std::printf("  HSR (100-350 km/h): mean %.1f ms, p50 %.1f ms, p90 %.1f ms\n",
              1e3 * hsr.legacy.feedback_delay_s.mean(),
              1e3 * hsr.legacy.feedback_delay_s.percentile(50),
              1e3 * hsr.legacy.feedback_delay_s.percentile(90));
  std::printf("  Driving (30-100 km/h): mean %.1f ms, p50 %.1f ms, p90 %.1f "
              "ms\n",
              1e3 * drive.legacy.feedback_delay_s.mean(),
              1e3 * drive.legacy.feedback_delay_s.percentile(50),
              1e3 * drive.legacy.feedback_delay_s.percentile(90));
  const auto cdf_hsr =
      common::empirical_cdf(hsr.legacy.feedback_delay_s.samples(), 12);
  std::printf("  delay_s  CDF(HSR)\n");
  for (const auto& p : cdf_hsr)
    std::printf("  %7.3f  %5.2f\n", p.value, p.fraction);

  // ---- (b) block error rates in the pre-failure SNR window ----
  // SNR samples come from the simulator's recorded 5 s windows preceding
  // each failure; the uplink report gets 2 HARQ attempts, the downlink
  // command one shot — hence the paper's UL < DL asymmetry.
  phy::LogisticBlerModel bler;
  std::vector<double> ul, dl;
  for (const double snr : hsr.legacy.total.pre_failure_snrs_db) {
    const double b =
        bler.bler(phy::Waveform::kOFDM, phy::DopplerRegime::kHigh, snr);
    ul.push_back(100.0 * b * b);  // after 2 attempts
    dl.push_back(100.0 * b);
  }
  common::Summary sul, sdl;
  sul.add_all(ul);
  sdl.add_all(dl);
  std::printf("\nFig. 2b: block error rate before signaling loss (OFDM, "
              "high Doppler)\n");
  std::printf("  uplink (feedback):   mean %5.1f%%  median %5.1f%%\n",
              sul.mean(), sul.median());
  std::printf("  downlink (HO cmd):   mean %5.1f%%  median %5.1f%%\n",
              sdl.mean(), sdl.median());
  std::printf("  BLER%%   CDF(UL)  CDF(DL)\n");
  for (double x = 0; x <= 100.0; x += 10.0)
    std::printf("  %5.0f   %6.2f   %6.2f\n", x, sul.cdf_at(x),
                sdl.cdf_at(x));
  std::printf(
      "\nPaper reference: HSR feedback averages ~800 ms vs sub-second "
      "driving; mean pre-loss\nBLER ~9.9%% uplink vs ~30.3%% downlink "
      "(downlink worse).\n");
  return 0;
}
