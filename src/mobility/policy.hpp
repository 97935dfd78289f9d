// Per-cell handover decision policies (Fig. 1b): a state machine whose
// stages monitor different cell sets, trigger measurement reconfiguration
// (multi-stage decision) or handover.
#pragma once

#include "mobility/cell.hpp"
#include "mobility/events.hpp"

#include <optional>
#include <ranges>
#include <vector>

namespace rem::mobility {

enum class PolicyAction {
  kHandover,     ///< migrate to the cell that satisfied the event
  kReconfigure,  ///< move to `next_stage` (e.g. start inter-freq. scan)
};

struct PolicyRule {
  int stage = 0;
  EventConfig event;
  /// Which channel's cells this rule measures; kAnyChannel matches all,
  /// kServingChannel restricts to the serving cell's own frequency,
  /// kOtherChannels to every frequency but the serving one
  /// (inter-frequency rules).
  ChannelId channel = kAnyChannel;
  PolicyAction action = PolicyAction::kHandover;
  int next_stage = -1;  ///< for kReconfigure

  static constexpr ChannelId kAnyChannel = -1;
  static constexpr ChannelId kServingChannel = -2;
  static constexpr ChannelId kOtherChannels = -3;
};

/// The policy one serving cell runs. Legacy multi-stage policies start in
/// stage 0 (intra-frequency A3 + an A2 guard) and reconfigure into later
/// stages for inter-frequency A4/A5 — see trace::synthesize_policy.
struct CellPolicy {
  std::vector<PolicyRule> rules;
  int initial_stage = 0;

  /// All rules active in a stage, in rule order: a view over `rules`, so
  /// a per-tick caller allocates nothing.
  auto rules_in_stage(int stage) const {
    return rules | std::views::filter([stage](const PolicyRule& r) {
             return r.stage == stage;
           });
  }
  /// Number of distinct stages.
  int num_stages() const;
  /// The A3 offset this policy applies against cells of `channel`
  /// (smallest offset wins if several rules match); nullopt if the policy
  /// has no A3 rule for that channel.
  std::optional<double> a3_offset_for(ChannelId channel,
                                      ChannelId serving_channel) const;
  /// True if any rule uses multi-stage reconfiguration.
  bool is_multi_stage() const;
};

}  // namespace rem::mobility
