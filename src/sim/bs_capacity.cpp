#include "sim/bs_capacity.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rem::sim {

namespace {
constexpr double kTimeEps = 1e-9;
}  // namespace

void validate(const BsCapacityConfig& cfg) {
  if (!cfg.enabled) return;
  if (cfg.slots < 1) {
    throw std::invalid_argument("BsCapacityConfig.slots must be >= 1, got " +
                                std::to_string(cfg.slots));
  }
  const auto positive = [](double v, const char* name) {
    if (v <= 0.0) {
      throw std::invalid_argument(std::string("BsCapacityConfig.") + name +
                                  " must be > 0, got " + std::to_string(v));
    }
  };
  positive(cfg.prep_service_s, "prep_service_s");
  positive(cfg.ctx_service_s, "ctx_service_s");
  positive(cfg.background_service_s, "background_service_s");
  if (cfg.admission_load_threshold <= 0.0 ||
      cfg.admission_load_threshold > 1.0) {
    throw std::invalid_argument(
        "BsCapacityConfig.admission_load_threshold must be in (0, 1], got " +
        std::to_string(cfg.admission_load_threshold));
  }
  if (cfg.reject_backoff_hint_s < 0.0) {
    throw std::invalid_argument(
        "BsCapacityConfig.reject_backoff_hint_s must be >= 0, got " +
        std::to_string(cfg.reject_backoff_hint_s));
  }
  if (cfg.admission_max_retries < 0) {
    throw std::invalid_argument(
        "BsCapacityConfig.admission_max_retries must be >= 0, got " +
        std::to_string(cfg.admission_max_retries));
  }
}

BsStation::BsStation(int slots, std::size_t queue_capacity)
    : slots_(slots < 1 ? 1 : slots),
      queue_capacity_(queue_capacity),
      slot_free_s_(static_cast<std::size_t>(slots_), 0.0) {}

std::optional<BsJob> BsStation::submit(double t, BsJobKind kind,
                                       double service_s,
                                       const net::BackhaulMessage& msg,
                                       int ue) {
  const auto earliest =
      std::min_element(slot_free_s_.begin(), slot_free_s_.end());
  const double start = std::max(t, *earliest);
  if (start > t + kTimeEps &&
      static_cast<std::size_t>(waiting(t)) >= queue_capacity_) {
    return std::nullopt;  // queue full: shed
  }
  BsJob job;
  job.kind = kind;
  job.submit_s = t;
  job.start_s = start;
  job.done_s = start + service_s;
  job.msg = msg;
  job.ue = ue;
  *earliest = job.done_s;
  jobs_.push_back(job);
  return job;
}

std::vector<BsJob> BsStation::take_completed(double t) {
  std::vector<BsJob> done;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].done_s <= t + kTimeEps) {
      done.push_back(jobs_[i]);
    } else {
      if (kept != i) jobs_[kept] = jobs_[i];
      ++kept;
    }
  }
  jobs_.resize(kept);
  // jobs_ is in submission order, so a stable sort breaks done_s ties by
  // submission.
  std::stable_sort(done.begin(), done.end(),
                   [](const BsJob& a, const BsJob& b) {
                     return a.done_s < b.done_s;
                   });
  return done;
}

int BsStation::occupancy(double t) const {
  int n = 0;
  for (const auto& j : jobs_) {
    if (j.done_s > t + kTimeEps) ++n;
  }
  return n;
}

int BsStation::waiting(double t) const {
  int n = 0;
  for (const auto& j : jobs_) {
    if (j.start_s > t + kTimeEps) ++n;
  }
  return n;
}

double BsStation::load(double t) const {
  const double cap = static_cast<double>(slots_) +
                     static_cast<double>(queue_capacity_);
  return static_cast<double>(occupancy(t)) / cap;
}

std::vector<BsJob> BsStation::unfinished_jobs() const {
  std::vector<BsJob> out;
  for (const auto& j : jobs_) {
    if (j.kind != BsJobKind::kBackground) out.push_back(j);
  }
  return out;
}

std::vector<BsJob> BsStation::flush_jobs() {
  std::vector<BsJob> lost = unfinished_jobs();
  jobs_.clear();
  std::fill(slot_free_s_.begin(), slot_free_s_.end(), 0.0);
  return lost;
}

}  // namespace rem::sim
