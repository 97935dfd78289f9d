#include "core/rem_manager.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <cmath>

namespace rem::core {
namespace {

/// Cross-band estimation error injected on estimated (not directly
/// measured) co-located cells, std dev in dB. Fig. 12: <= 2 dB at p90
/// corresponds to sigma ~= 1 dB.
constexpr double kCrossbandErrorSigmaDb = 1.0;
/// Strongest sites measured per cycle (one pilot each; co-located cells
/// come free via cross-band estimation).
constexpr std::size_t kMaxMeasuredSites = 4;

/// The entry for `key` (a site or cell id) in a (key, value) list, or
/// nullptr. Co-sited cells usually arrive back to back, so the search
/// starts at the end.
template <typename V>
std::pair<int, V>* find_entry(std::vector<std::pair<int, V>>& entries,
                              int key) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    if (it->first == key) return &*it;
  return nullptr;
}

/// Removes `key`'s entry, if any, by moving the last entry into its slot.
template <typename V>
void erase_entry(std::vector<std::pair<int, V>>& entries, int key) {
  if (auto* e = find_entry(entries, key)) {
    *e = entries.back();
    entries.pop_back();
  }
}

}  // namespace

void RemManager::on_serving_changed(double /*t*/, std::size_t /*new_idx*/) {
  entered_.clear();
  visible_.clear();
  last_decision_t_ = -1e9;
}

std::optional<sim::HandoverDecision> RemManager::update(
    double t, const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors) {
  // Graceful degradation: when the delay-Doppler estimates behind the
  // observations are staler than the threshold (pilot outage), bypass
  // cross-band estimation and fall back to direct time-frequency
  // measurement — fresh but noisy beats stale and corrupted.
  double max_age = 0.0;
  for (const auto& o : neighbors)
    max_age = std::max(max_age, o.estimate_age_s);
  degraded_ = max_age > cfg_.estimate_staleness_s;
  const bool crossband = cfg_.use_crossband && !degraded_;

  // One measurement per base station; co-located cells are estimated via
  // cross-band SVD, others measured directly. Every candidate is visible —
  // there is no multi-stage gating to miss a cell behind. Only the
  // strongest few sites are measured per cycle (bounded monitored set).
  visible_.clear();
  site_strength_.clear();
  for (const auto& o : neighbors) {
    visible_.push_back(o.cell_idx);
    auto* it = find_entry(site_strength_, o.id.base_station);
    if (it == nullptr)
      site_strength_.push_back({o.id.base_station, o.dd_snr_db});
    else
      it->second = std::max(it->second, o.dd_snr_db);
  }
  // Strongest sites first, ties to the lower site id.
  ranked_.clear();
  for (const auto& [site, snr] : site_strength_)
    ranked_.push_back({-snr, site});
  std::sort(ranked_.begin(), ranked_.end());
  if (ranked_.size() > kMaxMeasuredSites) ranked_.resize(kMaxMeasuredSites);
  tasks_.clear();
  for (const auto& o : neighbors) {
    const int site = o.id.base_station;
    const auto is_site = [&](const auto& r) { return r.second == site; };
    if (std::none_of(ranked_.begin(), ranked_.end(), is_site)) continue;
    if (crossband) {
      // One measurement per site; siblings are estimated.
      const bool site_has_task =
          std::any_of(tasks_.begin(), tasks_.end(), [&](const auto& task) {
            return task.cell.base_station == site;
          });
      if (!site_has_task)
        tasks_.push_back({o.id, o.id.channel == serving.id.channel});
    } else {
      // Ablation: every monitored cell costs its own measurement.
      tasks_.push_back({o.id, o.id.channel == serving.id.channel});
    }
  }

  // Stable DD-SNR comparison with the coordinated A3 offset. Estimated
  // cells carry the cross-band estimation error. With capacity selection,
  // the A3 comparison runs on 10*log10 of the Shannon capacity instead
  // (§5.3: Theorems 2-3 hold with SNR replaced by capacity).
  const auto policy_metric = [&](double snr_db, double bandwidth_hz) {
    if (!cfg_.capacity_selection) return snr_db;
    const double cap = common::shannon_capacity_bps(
        bandwidth_hz, common::db_to_lin(snr_db));
    return 10.0 * std::log10(std::max(cap, 1.0));
  };
  const double serving_metric = policy_metric(
      degraded_ ? serving.snr_db : serving.dd_snr_db, serving.bandwidth_hz);
  std::optional<std::size_t> best_target;
  double best_metric = -1e9;
  // Second-best TTT-qualified candidate: offered to the simulator as the
  // preparation fallback. Theorem 2 consistency is inherited — any cell
  // clearing the coordinated A3 threshold satisfies the same pairwise
  // offset-sum condition as the winner.
  int second_target = -1;
  double second_metric = -1e9;
  site_direct_.clear();  // site -> cell idx measured directly
  qualified_.clear();
  for (const auto& o : neighbors) {
    if (o.breaker_open) {
      // The circuit breaker tripped on this target: hidden from selection
      // entirely, and its TTT state resets so it must re-qualify from
      // scratch once the breaker admits traffic again.
      erase_entry(entered_, o.id.cell);
      continue;
    }
    auto* direct = find_entry(site_direct_, o.id.base_station);
    if (direct == nullptr) {
      site_direct_.push_back({o.id.base_station, o.cell_idx});
      direct = &site_direct_.back();
    }
    // Degraded mode swaps the stale delay-Doppler estimate for the fresh
    // direct measurement of the same cell.
    double snr = degraded_ ? o.snr_db : o.dd_snr_db;
    // A sibling of the measured cell is estimated (cross-band error);
    // with the ablation every monitored cell is measured directly, which
    // removed the error but paid per-cell measurement time above.
    const bool is_estimated = crossband && direct->second != o.cell_idx;
    if (is_estimated)
      snr += rng_.gaussian(0.0, kCrossbandErrorSigmaDb);
    const double metric = policy_metric(snr, o.bandwidth_hz);
    const double threshold =
        serving_metric + cfg_.a3_offset_db + cfg_.hysteresis_db;
    if (metric > threshold) {
      auto* entry = find_entry(entered_, o.id.cell);
      if (entry == nullptr) {
        entered_.push_back({o.id.cell, t});
        entry = &entered_.back();
      }
      if (t - entry->second + 1e-12 >= cfg_.time_to_trigger_s) {
        qualified_.push_back({metric, o.cell_idx, o.advertised_load});
        if (metric > best_metric) {
          if (best_target) {
            second_metric = best_metric;
            second_target = static_cast<int>(*best_target);
          }
          best_metric = metric;
          best_target = o.cell_idx;
        } else if (metric > second_metric) {
          second_metric = metric;
          second_target = static_cast<int>(o.cell_idx);
        }
      }
    } else {
      erase_entry(entered_, o.id.cell);
    }
  }

  if (!best_target) return std::nullopt;
  if (t - last_decision_t_ < cfg_.refire_interval_s) return std::nullopt;
  last_decision_t_ = t;

  sim::HandoverDecision d;
  d.target_idx = *best_target;
  d.fallback_idx = second_target;
  // Load-aware tie-breaking among the TTT-qualified candidates: every
  // in-band candidate already cleared the coordinated A3 threshold, so
  // Theorem 2 holds for whichever wins.
  load_aware_tie_break(qualified_, best_metric, kLoadTieBandDb, d);
  // Without cross-band estimation (ablation or degraded fallback) every
  // monitored cell is measured the legacy way (sequentially, with gaps
  // for inter-frequency cells).
  d.feedback_delay_s =
      crossband ? mobility::rem_feedback_delay_s(tasks_, cfg_.measurement)
                : mobility::legacy_feedback_delay_s(tasks_, cfg_.measurement);
  return d;
}

}  // namespace rem::core
