#include "mobility/policy.hpp"

#include <algorithm>

namespace rem::mobility {

int CellPolicy::num_stages() const {
  int max_stage = 0;
  for (const auto& r : rules) {
    max_stage = std::max(max_stage, r.stage);
    if (r.action == PolicyAction::kReconfigure)
      max_stage = std::max(max_stage, r.next_stage);
  }
  return max_stage + 1;
}

std::optional<double> CellPolicy::a3_offset_for(
    ChannelId channel, ChannelId serving_channel) const {
  std::optional<double> best;
  for (const auto& r : rules) {
    if (r.event.type != EventType::kA3) continue;
    const bool matches =
        r.channel == PolicyRule::kAnyChannel || r.channel == channel ||
        (r.channel == PolicyRule::kServingChannel &&
         channel == serving_channel);
    if (!matches) continue;
    if (!best || r.event.offset < *best) best = r.event.offset;
  }
  return best;
}

bool CellPolicy::is_multi_stage() const {
  return std::any_of(rules.begin(), rules.end(), [](const PolicyRule& r) {
    return r.action == PolicyAction::kReconfigure;
  });
}

}  // namespace rem::mobility
