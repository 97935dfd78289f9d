#include "core/rem_manager.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rem::core {
namespace {

/// Cross-band estimation error injected on estimated (not directly
/// measured) co-located cells, std dev in dB. Fig. 12: <= 2 dB at p90
/// corresponds to sigma ~= 1 dB.
constexpr double kCrossbandErrorSigmaDb = 1.0;
/// Strongest sites measured per cycle (one pilot each; co-located cells
/// come free via cross-band estimation).
constexpr std::size_t kMaxMeasuredSites = 4;
/// A3 hysteresis, added to the coordinated offset.
constexpr double kHysteresisDb = 1.0;
/// Short TTT — the stable DD metric does not need long smoothing.
constexpr double kTimeToTrigger_s = 0.040;
/// Re-fire interval after an emitted decision (lost-report retry).
constexpr double kRefireInterval_s = 0.12;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The entry for `key` (a site id) in a (key, value) list, or nullptr.
/// Co-sited cells usually arrive back to back, so the search starts at
/// the end.
template <typename V>
std::pair<int, V>* find_entry(std::vector<std::pair<int, V>>& entries,
                              int key) {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    if (it->first == key) return &*it;
  return nullptr;
}

/// Grows an id-indexed table to hold slot `id`, filling with `fill`.
template <typename T>
[[gnu::noinline]] void grow_to(std::vector<T>& table, int id, const T& fill,
                               const char* what) {
  if (id < 0)
    throw std::invalid_argument(std::string("RemManager: negative ") + what +
                                " id " + std::to_string(id));
  table.resize(static_cast<std::size_t>(id) + 1, fill);
}

/// Slot `id` of an id-indexed table, grown on first use. A negative id
/// converts to a huge index, so one comparison guards both cases.
template <typename T>
T& id_slot(std::vector<T>& table, int id, const T& fill, const char* what) {
  const auto i = static_cast<std::size_t>(id);
  if (i >= table.size()) [[unlikely]]
    grow_to(table, id, fill, what);
  return table[i];
}

}  // namespace

RemManager::SiteDirect& RemManager::site_direct(int site) {
  return id_slot(site_direct_, site, SiteDirect{}, "site");
}

double& RemManager::entered_at(int cell) {
  return id_slot(entered_at_, cell, kNaN, "cell");
}

void RemManager::on_serving_changed(double /*t*/, std::size_t /*new_idx*/) {
  std::fill(entered_at_.begin(), entered_at_.end(), kNaN);
  visible_.clear();
  last_decision_t_ = -1e9;
}

std::optional<sim::HandoverDecision> RemManager::update(
    double t, const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors) {
  // Pass 1 draws nothing. It finds how stale the delay-Doppler estimates
  // are, the visible cells, and each site's directly measured cell, and
  // counts the candidates estimated from a sibling instead.
  ++update_count_;
  double max_age = 0.0;
  std::size_t estimated = 0;
  visible_.clear();
  for (const auto& o : neighbors) {
    max_age = std::max(max_age, o.estimate_age_s);
    visible_.push_back(o.cell_idx);
    if (o.breaker_open) continue;
    SiteDirect& direct = site_direct(o.id.base_station);
    if (direct.update != update_count_)
      direct = {update_count_, o.cell_idx};
    else if (direct.cell_idx != o.cell_idx)
      ++estimated;
  }
  // Graceful degradation: when the delay-Doppler estimates behind the
  // observations are staler than the threshold (pilot outage), bypass
  // cross-band estimation and fall back to direct time-frequency
  // measurement — fresh but noisy beats stale and corrupted.
  degraded_ = max_age > cfg_.estimate_staleness_s;
  const bool crossband = cfg_.use_crossband && !degraded_;
  // The estimated cells' cross-band errors in one batch, in candidate
  // order: the values one gaussian() per estimated cell would take.
  errors_.resize(crossband ? estimated : 0);
  rng_.normals(errors_);

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
  const double threshold =
      serving_metric + cfg_.a3_offset_db + kHysteresisDb;
  std::optional<std::size_t> best_target;
  double best_metric = -1e9;
  // Second-best TTT-qualified candidate: offered to the simulator as the
  // preparation fallback. Theorem 2 consistency is inherited — any cell
  // clearing the coordinated A3 threshold satisfies the same pairwise
  // offset-sum condition as the winner.
  int second_target = -1;
  double second_metric = -1e9;
  std::size_t next_error = 0;
  qualified_.clear();
  for (const auto& o : neighbors) {
    if (o.breaker_open) {
      // The circuit breaker tripped on this target: hidden from selection
      // entirely, and its TTT state resets so it must re-qualify from
      // scratch once the breaker admits traffic again.
      entered_at(o.id.cell) = kNaN;
      continue;
    }
    // Degraded mode swaps the stale delay-Doppler estimate for the fresh
    // direct measurement of the same cell.
    double snr = degraded_ ? o.snr_db : o.dd_snr_db;
    // A sibling of the measured cell is estimated (cross-band error);
    // with the ablation every monitored cell is measured directly, which
    // removes the error but pays per-cell measurement time.
    if (crossband && site_direct(o.id.base_station).cell_idx != o.cell_idx)
      snr += errors_[next_error++] * kCrossbandErrorSigmaDb + 0.0;
    const double metric = policy_metric(snr, o.bandwidth_hz);
    double& entered = entered_at(o.id.cell);
    if (metric > threshold) {
      if (std::isnan(entered)) entered = t;
      if (t - entered + 1e-12 >= kTimeToTrigger_s) {
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
      entered = kNaN;
    }
  }

  if (!best_target) return std::nullopt;
  if (t - last_decision_t_ < kRefireInterval_s) return std::nullopt;
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
  plan_measurements(serving, neighbors, crossband);
  d.feedback_delay_s =
      crossband ? mobility::rem_feedback_delay_s(tasks_, cfg_.measurement)
                : mobility::legacy_feedback_delay_s(tasks_, cfg_.measurement);
  return d;
}

void RemManager::plan_measurements(
    const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors, bool crossband) {
  // One measurement per base station; co-located cells are estimated via
  // cross-band SVD, others measured directly. Every candidate is visible —
  // there is no multi-stage gating to miss a cell behind. Only the
  // strongest few sites are measured per cycle (bounded monitored set).
  site_strength_.clear();
  for (const auto& o : neighbors) {
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
}

}  // namespace rem::core
