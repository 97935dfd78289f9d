#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rem::common {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void Summary::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : samples_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::min() const {
  if (samples_.empty()) throw std::runtime_error("Summary::min on empty set");
  ensure_sorted();
  return sorted_.front();
}

double Summary::max() const {
  if (samples_.empty()) throw std::runtime_error("Summary::max on empty set");
  ensure_sorted();
  return sorted_.back();
}

double Summary::percentile(double p) const {
  if (samples_.empty())
    throw std::runtime_error("Summary::percentile on empty set");
  ensure_sorted();
  if (p <= 0.0) return sorted_.front();
  if (p >= 100.0) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double Summary::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::vector<CdfPoint> empirical_cdf(const std::vector<double>& samples,
                                    std::size_t num_points) {
  if (samples.empty() || num_points == 0) return {};
  Summary s;
  s.add_all(samples);
  const double lo = s.min();
  const double hi = s.max();
  std::vector<CdfPoint> out;
  out.reserve(num_points);
  if (hi <= lo) {
    out.push_back({lo, 1.0});
    return out;
  }
  for (std::size_t i = 0; i < num_points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) /
                 static_cast<double>(num_points - 1);
    out.push_back({x, s.cdf_at(x)});
  }
  return out;
}

}  // namespace rem::common
