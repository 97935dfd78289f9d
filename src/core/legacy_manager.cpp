#include "core/legacy_manager.hpp"

#include "core/load_tie_break.hpp"

#include <algorithm>

namespace rem::core {

namespace rm = rem::mobility;

namespace {

/// Bounded monitored set: strongest cells measured per stage.
constexpr std::size_t kMaxMonitoredCells = 8;

}  // namespace

LegacyManager::LegacyManager(LegacyConfig cfg) : cfg_(std::move(cfg)) {}

const rm::CellPolicy& LegacyManager::serving_policy() const {
  const auto it = cfg_.policies.find(serving_id_.cell);
  return it != cfg_.policies.end() ? it->second : cfg_.default_policy;
}

bool LegacyManager::rule_matches(const rm::PolicyRule& rule,
                                 const rm::CellId& serving,
                                 const rm::CellId& target) const {
  if (rule.channel == rm::PolicyRule::kAnyChannel) return true;
  if (rule.channel == rm::PolicyRule::kServingChannel)
    return target.channel == serving.channel;
  if (rule.channel == rm::PolicyRule::kOtherChannels)
    return target.channel != serving.channel;
  return rule.channel == target.channel;
}

void LegacyManager::on_serving_changed(double /*t*/, std::size_t new_idx) {
  serving_cell_ = static_cast<int>(new_idx);
  stage_ = 0;
  reconfigurations_ = 0;
  pending_stage_ = -1;
  stage_change_due_ = -1.0;
  monitors_.clear();
  visible_.clear();
  last_decision_t_ = -1e9;
}

std::optional<sim::HandoverDecision> LegacyManager::update(
    double t, const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors) {
  serving_id_ = serving.id;
  const auto& policy = serving_policy();
  if (stage_ == 0) stage_ = policy.initial_stage;

  // A pending reconfiguration takes effect after its round trip.
  if (pending_stage_ >= 0 && t >= stage_change_due_) {
    stage_ = pending_stage_;
    pending_stage_ = -1;
    ++reconfigurations_;
    // New measurement configuration resets the neighbor monitors (the
    // serving-only guards stay armed).
    for (auto& [k, mon] : monitors_) {
      if (mon.config().type != rm::EventType::kA1 &&
          mon.config().type != rm::EventType::kA2)
        mon.reset();
    }
  }

  // Track what this stage can see (for missed-cell classification). The
  // monitored set is bounded: only the strongest cells get measured, and
  // they make the measurement task list behind a decision's feedback
  // delay.
  candidates_.clear();
  auto stage_rules = policy.rules_in_stage(stage_);
  for (const auto& o : neighbors) {
    // A breaker-open target is hidden from monitoring entirely until the
    // breaker admits traffic again (never true unless breakers are on).
    if (o.breaker_open) continue;
    for (const auto& rule : stage_rules) {
      if (rule.event.type == rm::EventType::kA1 ||
          rule.event.type == rm::EventType::kA2)
        continue;  // serving-only
      if (!rule_matches(rule, serving.id, o.id)) continue;
      candidates_.push_back({-o.rsrp_dbm, &o});
      break;
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  if (candidates_.size() > kMaxMonitoredCells)
    candidates_.resize(kMaxMonitoredCells);
  visible_.clear();
  for (const auto& c : candidates_) visible_.push_back(c.second->cell_idx);

  std::optional<sim::HandoverDecision> decision;
  fired_.clear();
  for (std::size_t r = 0; r < policy.rules.size(); ++r) {
    const auto& rule = policy.rules[r];
    if (rule.stage != stage_) continue;
    const bool serving_only = rule.event.type == rm::EventType::kA1 ||
                              rule.event.type == rm::EventType::kA2;
    // During the re-fire hold-off the reporting machinery is busy; freeze
    // the handover triggers (not the reconfiguration guards) so a held
    // fire is not silently consumed.
    if (rule.action == rm::PolicyAction::kHandover &&
        t - last_decision_t_ < cfg_.refire_interval_s)
      continue;
    // Evaluate against each applicable neighbor (or once for A1/A2).
    const auto eval_one = [&](int neighbor_cell, double neighbor_metric,
                              std::size_t target_idx, double adv_load) {
      const auto key = std::make_pair(static_cast<int>(r), neighbor_cell);
      auto& monitor = monitors_.try_emplace(key, rule.event).first->second;
      if (!monitor.update(t, serving.rsrp_dbm, neighbor_metric)) return;
      if (rule.action == rm::PolicyAction::kHandover)
        fired_.push_back({neighbor_metric, target_idx, adv_load});
      if (rule.action == rm::PolicyAction::kReconfigure) {
        if (rule.next_stage != stage_ && pending_stage_ < 0) {
          // Feedback + reconfiguration command round trip before the new
          // measurement configuration is active (§3.2's extra delay).
          pending_stage_ = rule.next_stage;
          stage_change_due_ = t + rm::kReconfigureRtt_s + rm::kReportLatency_s;
        }
        return;
      }
      if (decision) {
        // First firing rule wins this tick; the next distinct firing
        // candidate becomes the preparation fallback target.
        if (decision->fallback_idx < 0 &&
            static_cast<int>(target_idx) !=
                static_cast<int>(decision->target_idx))
          decision->fallback_idx = static_cast<int>(target_idx);
        return;
      }
      tasks_.clear();
      for (const auto& c : candidates_)
        tasks_.push_back(
            {c.second->id, c.second->id.channel == serving.id.channel});
      sim::HandoverDecision d;
      d.target_idx = target_idx;
      d.feedback_delay_s = rm::legacy_feedback_delay_s(
          tasks_, cfg_.measurement, reconfigurations_);
      decision = d;
    };

    if (serving_only) {
      eval_one(-1, 0.0, 0, -1.0);
      continue;
    }
    for (const auto& o : neighbors) {
      if (std::find(visible_.begin(), visible_.end(), o.cell_idx) ==
          visible_.end())
        continue;  // not monitored
      if (!rule_matches(rule, serving.id, o.id)) continue;
      eval_one(o.id.cell, o.rsrp_dbm, o.cell_idx, o.advertised_load);
    }
  }

  if (decision) {
    // Load-aware tie-breaking among this tick's fired handover candidates,
    // banded around the first-firing (chosen) target's RSRP.
    load_aware_tie_break(fired_, fired_.front().metric, kLoadTieBandDb,
                         *decision);
    last_decision_t_ = t;
    // A decision re-arms the triggers so a lost report can re-fire after
    // the re-fire interval.
    for (auto& [k, mon] : monitors_) mon.reset();
  }
  return decision;
}

}  // namespace rem::core
