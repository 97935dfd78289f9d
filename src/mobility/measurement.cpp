#include "mobility/measurement.hpp"

#include <algorithm>
#include <cmath>

namespace rem::mobility {
namespace {

/// Time to acquire + filter one intra-frequency cell [s].
constexpr double kIntraMeasure_s = 0.040;
/// Measurement gap schedule: kGapLength_s every kGapPeriod_s (LTE gp0/gp1).
constexpr double kGapPeriod_s = 0.040;
constexpr double kGapLength_s = 0.006;
/// Time inside gaps needed to acquire one inter-frequency cell [s].
constexpr double kInterAcquire_s = 0.015;

// Wall-clock time needed to accumulate `needed` seconds of in-gap
// measurement under the gap schedule.
double gap_time(double needed) {
  if (needed <= 0.0) return 0.0;
  const double gaps = std::ceil(needed / kGapLength_s);
  // The last gap may be partially used; earlier gaps are fully spaced.
  return (gaps - 1.0) * kGapPeriod_s + (needed - (gaps - 1.0) * kGapLength_s);
}

}  // namespace

double legacy_feedback_delay_s(const std::vector<MeasureTask>& tasks,
                               const MeasurementConfig& cfg,
                               int reconfigurations) {
  // Head-of-line blocking: every cell is measured one after another, the
  // report leaves only after the slowest TTT-gated cell.
  double intra_time = 0.0;
  double inter_acquire = 0.0;
  bool any_intra = false, any_inter = false;
  for (const auto& t : tasks) {
    if (t.intra_frequency) {
      intra_time += kIntraMeasure_s;
      any_intra = true;
    } else {
      inter_acquire += kInterAcquire_s;
      any_inter = true;
    }
  }
  double delay = intra_time + gap_time(inter_acquire);
  if (any_inter)
    delay += cfg.inter_ttt_s;
  else if (any_intra)
    delay += cfg.intra_ttt_s;
  delay += kReportLatency_s;
  delay += reconfigurations * kReconfigureRtt_s;
  return delay;
}

double rem_feedback_delay_s(const std::vector<MeasureTask>& tasks,
                            const MeasurementConfig& cfg) {
  // Group by base station; measure one cell per site (intra preferred).
  // Each site counts at its first task; the sums only count sites, so the
  // order they are met in does not matter. No allocation: the manager
  // calls this on every decision.
  double intra_time = 0.0;
  double inter_acquire = 0.0;
  std::size_t sites = 0;
  for (auto t = tasks.begin(); t != tasks.end(); ++t) {
    const int site = t->cell.base_station;
    const auto on_site = [site](const MeasureTask& u) {
      return u.cell.base_station == site;
    };
    if (std::any_of(tasks.begin(), t, on_site)) continue;
    ++sites;
    if (std::any_of(t, tasks.end(), [&](const MeasureTask& u) {
          return on_site(u) && u.intra_frequency;
        }))
      intra_time += kIntraMeasure_s;
    else
      inter_acquire += kInterAcquire_s;
  }
  double delay = intra_time + gap_time(inter_acquire);
  // Stable delay-Doppler metrics let REM use the short (intra) TTT for
  // everything; cross-band estimation adds its runtime per site.
  delay += cfg.intra_ttt_s;
  delay += cfg.crossband_runtime_s * static_cast<double>(sites);
  delay += kReportLatency_s;
  return delay;
}

double gap_spectrum_overhead(bool gaps_active) {
  return gaps_active ? kGapLength_s / kGapPeriod_s : 0.0;
}

}  // namespace rem::mobility
