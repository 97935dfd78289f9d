#include "core/load_tie_break.hpp"

#include <cmath>

namespace rem::core {

void load_aware_tie_break(const std::vector<LoadCandidate>& candidates,
                          double chosen_metric, double band_db,
                          sim::HandoverDecision& decision) {
  if (band_db <= 0.0) return;
  const double floor = chosen_metric - band_db;
  bool any_ad = false;
  for (const auto& c : candidates)
    if (c.metric >= floor && c.load >= 0.0) any_ad = true;
  if (!any_ad) return;
  double sel_eff = 2.0;  // above any real utilization
  double sel_metric = -1e9;
  std::size_t sel_idx = decision.target_idx;
  for (const auto& c : candidates) {
    if (c.metric < floor) continue;
    const double eff = c.load >= 0.0 ? c.load : 0.5;
    const bool better =
        eff < sel_eff - 1e-9 ||
        (std::abs(eff - sel_eff) <= 1e-9 &&
         (c.metric > sel_metric ||
          (c.metric == sel_metric && c.idx < sel_idx)));
    if (better) {
      sel_eff = eff;
      sel_metric = c.metric;
      sel_idx = c.idx;
    }
  }
  if (sel_idx == decision.target_idx) return;
  if (decision.fallback_idx == static_cast<int>(sel_idx))
    decision.fallback_idx = static_cast<int>(decision.target_idx);
  decision.target_idx = sel_idx;
}

}  // namespace rem::core
