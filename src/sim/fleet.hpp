// Deterministic statistics folding: fleet merging for Simulator::run_fleet
// and accumulation over independent runs (seeds) for the benches.
//
// A fleet run produces one SimStats per UE (indexed by UE id); the
// aggregate is a pure fold over that vector in UE-id order, so it is
// reproducible run-to-run and thread-count-independent by construction.
// Each scalar field folds under the merge column of its row in
// sim/stats_table.hpp (StatMerge: sum, max, world-global, mean, mean of
// the non-zero values). The containers fold by hand: failures_by_cause
// sums per cause, the sample vectors (outage durations, feedback delays,
// pre-failure SNRs) concatenate in UE order, and events merge into one
// time-sorted log, UE order breaking ties, via merge_fleet_events.
#pragma once

#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

namespace rem::sim {

/// Fold one scalar field of per-UE stats under `rule`, in UE-id order.
/// An empty input folds to zero.
template <class T>
T fold_stat(StatMerge rule, const std::vector<SimStats>& per_ue,
            T SimStats::*field) {
  T acc{};
  int set = 0;
  for (const auto& s : per_ue) {
    const T v = s.*field;
    switch (rule) {
      case StatMerge::kSum:
      case StatMerge::kMean:
        acc += v;
        break;
      case StatMerge::kMax:
      case StatMerge::kWorld:
        acc = std::max(acc, v);
        break;
      case StatMerge::kMeanNonzero:
        if (v > 0) {
          acc += v;
          ++set;
        }
        break;
    }
  }
  if (rule == StatMerge::kMean && !per_ue.empty())
    acc = static_cast<T>(acc / static_cast<double>(per_ue.size()));
  if (rule == StatMerge::kMeanNonzero)
    acc = set > 0 ? static_cast<T>(acc / static_cast<double>(set)) : T{};
  return acc;
}

/// Merge per-UE event logs (each already time-sorted) into one log sorted
/// by t_s, with same-timestamp events kept in UE-id order (the merge is
/// stable over the UE-order concatenation). Cross-UE timestamp regression
/// is impossible in the output by construction.
EventLog merge_fleet_events(const std::vector<SimStats>& per_ue);

/// Fold per-UE stats (indexed by UE id) into the fleet aggregate under
/// the rules above. Throws std::invalid_argument on an empty input.
SimStats merge_fleet_stats(const std::vector<SimStats>& per_ue);

/// Add one independent run (another seed, another world) into `total`:
/// every scalar sums except kMax fields, which keep the maximum. World
/// counters add up too, since separate runs are separate worlds, and mean
/// fields hold the sum of the per-run means. failures_by_cause sums per
/// cause and the sample vectors append; events are left out.
void accumulate_run_stats(SimStats& total, const SimStats& run);

}  // namespace rem::sim
