#include "sim/fleet.hpp"

#include <stdexcept>

namespace rem::sim {
namespace {

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

EventLog merge_fleet_events(const std::vector<SimStats>& per_ue) {
  EventLog merged;
  std::size_t total = 0;
  for (const auto& s : per_ue) total += s.events.size();
  merged.reserve(total);
  for (const auto& s : per_ue)
    merged.insert(merged.end(), s.events.begin(), s.events.end());
  // Each per-UE log is time-sorted, so a stable sort over the UE-order
  // concatenation is exactly a k-way merge with UE-id tiebreak.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SignalingEvent& a, const SignalingEvent& b) {
                     return a.t_s < b.t_s;
                   });
  return merged;
}

SimStats merge_fleet_stats(const std::vector<SimStats>& per_ue) {
  if (per_ue.empty())
    throw std::invalid_argument("merge_fleet_stats: no per-UE stats");
  SimStats agg;
  for_each_stat([&](const StatField& f, auto field) {
    agg.*field = fold_stat(f.merge, per_ue, field);
  });
  for (const auto& s : per_ue) {
    for (const auto& [cause, n] : s.failures_by_cause)
      agg.failures_by_cause[cause] += n;
    append(agg.outage_durations_s, s.outage_durations_s);
    append(agg.feedback_delays_s, s.feedback_delays_s);
    append(agg.pre_failure_snrs_db, s.pre_failure_snrs_db);
  }
  agg.events = merge_fleet_events(per_ue);
  return agg;
}

void accumulate_run_stats(SimStats& total, const SimStats& run) {
  for_each_stat([&](const StatField& f, auto field) {
    if (f.merge == StatMerge::kMax)
      total.*field = std::max(total.*field, run.*field);
    else
      total.*field += run.*field;
  });
  for (const auto& [cause, n] : run.failures_by_cause)
    total.failures_by_cause[cause] += n;
  append(total.outage_durations_s, run.outage_durations_s);
  append(total.feedback_delays_s, run.feedback_delays_s);
  append(total.pre_failure_snrs_db, run.pre_failure_snrs_db);
}

}  // namespace rem::sim
