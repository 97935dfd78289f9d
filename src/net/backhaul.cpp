#include "net/backhaul.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rem::net {
namespace {

void check_prob(double v, const char* name) {
  if (!(v >= 0.0 && v <= 1.0))
    throw std::invalid_argument("BackhaulConfig: " + std::string(name) + " " +
                                std::to_string(v) + " outside [0, 1]");
}

void check_nonneg(double v, const char* name) {
  if (!(v >= 0.0))
    throw std::invalid_argument("BackhaulConfig: " + std::string(name) + " " +
                                std::to_string(v) + " must be >= 0");
}

}  // namespace

BackhaulNetwork::BackhaulNetwork(const BackhaulConfig& cfg, common::Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  if (!(cfg_.base_latency_s > 0.0))
    throw std::invalid_argument("BackhaulConfig: base_latency_s " +
                                std::to_string(cfg_.base_latency_s) +
                                " must be > 0");
  check_nonneg(cfg_.jitter_s, "jitter_s");
  check_nonneg(cfg_.reorder_extra_s, "reorder_extra_s");
  check_prob(cfg_.loss_prob, "loss_prob");
  check_prob(cfg_.reorder_prob, "reorder_prob");
  check_prob(cfg_.duplicate_prob, "duplicate_prob");
  if (cfg_.queue_capacity < 1)
    throw std::invalid_argument(
        "BackhaulConfig: queue_capacity must be >= 1");
  if (!(cfg_.reverse_latency_scale > 0.0))
    throw std::invalid_argument("BackhaulConfig: reverse_latency_scale " +
                                std::to_string(cfg_.reverse_latency_scale) +
                                " must be > 0");
}

double BackhaulNetwork::draw_delay(double extra_delay_s) {
  double d = cfg_.base_latency_s + extra_delay_s;
  if (cfg_.jitter_s > 0.0) d += rng_.uniform(0.0, cfg_.jitter_s);
  if (cfg_.reorder_prob > 0.0 && rng_.bernoulli(cfg_.reorder_prob)) {
    ++stats_.reordered;
    if (cfg_.reorder_extra_s > 0.0)
      d += rng_.uniform(0.0, cfg_.reorder_extra_s);
  }
  return d;
}

bool BackhaulNetwork::send(double now_s, const BackhaulMessage& msg,
                           double extra_loss_prob, double extra_delay_s,
                           bool partitioned) {
  ++stats_.sent;
  // Partitions are deterministic drops: no draws, so a partition window
  // does not shift the random sequence of messages sent after it ends.
  if (partitioned) {
    ++stats_.dropped_partition;
    return false;
  }
  const double p_loss = std::min(1.0, cfg_.loss_prob + extra_loss_prob);
  if (p_loss > 0.0 && rng_.bernoulli(p_loss)) {
    ++stats_.dropped_loss;
    return false;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.dropped_queue;
    return false;
  }
  // Asymmetric provisioning: the reverse direction (toward the
  // lower-indexed cell) pays the configured scale on its whole one-way
  // delay. The scale multiplies *after* the draws, so symmetric and
  // asymmetric links consume the identical random sequence.
  const bool reverse =
      msg.src_cell >= 0 && msg.dst_cell >= 0 && msg.dst_cell < msg.src_cell;
  const double dir_scale = reverse ? cfg_.reverse_latency_scale : 1.0;
  queue_.push_back({now_s + dir_scale * draw_delay(extra_delay_s),
                    next_order_++, now_s, msg});
  if (cfg_.duplicate_prob > 0.0 && rng_.bernoulli(cfg_.duplicate_prob) &&
      queue_.size() < cfg_.queue_capacity) {
    ++stats_.duplicated;
    queue_.push_back({now_s + dir_scale * draw_delay(extra_delay_s),
                      next_order_++, now_s, msg});
  }
  return true;
}

std::size_t BackhaulNetwork::drop_in_flight_for_cell(std::int32_t cell) {
  std::size_t kept = 0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const BackhaulMessage& m = queue_[i].msg;
    if (m.src_cell == cell || m.dst_cell == cell) {
      ++dropped;
    } else {
      if (kept != i) queue_[kept] = std::move(queue_[i]);
      ++kept;
    }
  }
  queue_.resize(kept);
  stats_.dropped_crash += dropped;
  return dropped;
}

std::vector<BackhaulMessage> BackhaulNetwork::poll(double now_s) {
  // Tolerance matches the simulator's tick-time epsilon so a frame due
  // exactly on a tick boundary is not deferred by float rounding.
  const double cutoff = now_s + 1e-9;
  std::vector<InFlight> due;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].deliver_at_s <= cutoff) {
      due.push_back(std::move(queue_[i]));
    } else {
      if (kept != i) queue_[kept] = std::move(queue_[i]);
      ++kept;
    }
  }
  queue_.resize(kept);
  std::sort(due.begin(), due.end(), [](const InFlight& a, const InFlight& b) {
    if (a.deliver_at_s != b.deliver_at_s) return a.deliver_at_s < b.deliver_at_s;
    return a.order < b.order;
  });
  std::vector<BackhaulMessage> out;
  out.reserve(due.size());
  for (const auto& f : due) {
    out.push_back(f.msg);
    ++stats_.delivered;
    stats_.latency_sum_s += f.deliver_at_s - f.sent_at_s;
  }
  return out;
}

}  // namespace rem::net
