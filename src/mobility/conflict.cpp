#include "mobility/conflict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rem::mobility {
namespace {

/// Valid RSRP range (dBm) the satisfiability check searches.
constexpr double kMetricLoDbm = -140.0;
constexpr double kMetricHiDbm = -40.0;

// Conjunction of box bounds on (r_s, r_n) and a lower bound on r_n - r_s.
// Every Table 1 event maps onto this shape:
//   A1: r_s > t          A2: r_s < t          A3: r_n - r_s > offset
//   A4: r_n > t          A5: r_s < t1, r_n > t2
struct Region {
  double s_lo, s_hi;  // serving metric bounds
  double n_lo, n_hi;  // neighbor metric bounds
  double diff_lo;     // r_n - r_s > diff_lo (-inf when unconstrained)

  static Region full() {
    return {kMetricLoDbm, kMetricHiDbm, kMetricLoDbm, kMetricHiDbm,
            -std::numeric_limits<double>::infinity()};
  }
};

Region event_region(const EventConfig& e) {
  Region reg = Region::full();
  switch (e.type) {
    case EventType::kA1:
      reg.s_lo = std::max(reg.s_lo, e.threshold1 + e.hysteresis);
      break;
    case EventType::kA2:
      reg.s_hi = std::min(reg.s_hi, e.threshold1 - e.hysteresis);
      break;
    case EventType::kA3:
      reg.diff_lo = e.offset + e.hysteresis;
      break;
    case EventType::kA4:
      reg.n_lo = std::max(reg.n_lo, e.threshold1 + e.hysteresis);
      break;
    case EventType::kA5:
      reg.s_hi = std::min(reg.s_hi, e.threshold1 - e.hysteresis);
      reg.n_lo = std::max(reg.n_lo, e.threshold2 + e.hysteresis);
      break;
  }
  return reg;
}

// Intersect region A (serving = r1, neighbor = r2) with region B evaluated
// with the roles swapped (serving = r2, neighbor = r1). Exact
// satisfiability over the (r1, r2) plane, returning a witness point.
bool regions_intersect(const Region& a, const Region& b, double* w1,
                       double* w2) {
  // r1 bounds: a's serving and b's neighbor. r2 bounds: a's neighbor and
  // b's serving.
  const double r1_lo = std::max(a.s_lo, b.n_lo);
  const double r1_hi = std::min(a.s_hi, b.n_hi);
  const double r2_lo = std::max(a.n_lo, b.s_lo);
  const double r2_hi = std::min(a.n_hi, b.s_hi);
  if (r1_lo > r1_hi || r2_lo > r2_hi) return false;
  // Difference constraints: a demands r2 - r1 > a.diff_lo; b demands
  // r1 - r2 > b.diff_lo, i.e. r2 - r1 < -b.diff_lo.
  const double d_lo = a.diff_lo;                 // r2 - r1 > d_lo
  const double d_hi = -b.diff_lo;                // r2 - r1 < d_hi
  // Achievable (r2 - r1) range within the box:
  const double feas_lo = std::max(r2_lo - r1_hi, d_lo);
  const double feas_hi = std::min(r2_hi - r1_lo, d_hi);
  // Strict inequalities: need a nonempty open interval.
  if (!(feas_lo < feas_hi)) return false;
  // Build a witness: pick d in the middle, then choose r1 so both points
  // stay in their boxes.
  const double eps = 1e-9;
  const double d = std::nextafter(
      std::clamp((feas_lo + feas_hi) / 2.0, feas_lo + eps, feas_hi - eps),
      feas_hi);
  const double r1_min = std::max(r1_lo, r2_lo - d);
  const double r1_max = std::min(r1_hi, r2_hi - d);
  const double r1 = (r1_min + r1_max) / 2.0;
  if (w1 != nullptr) *w1 = r1;
  if (w2 != nullptr) *w2 = r1 + d;
  return true;
}

// Handover-capable rules of a policy with the serving-metric gate implied
// by reaching their stage: a stage-N rule (N > 0) is only armed after the
// A2 reconfiguration guard fired, so its region inherits the guard's
// serving upper bound. Returns (rule, serving_upper_bound) pairs.
struct GatedRule {
  const PolicyRule* rule;
  double serving_upper;  // +inf when ungated
};

std::vector<GatedRule> handover_rules(const CellPolicy& p) {
  // Weakest (highest) A2 guard leading out of stage 0.
  double guard = std::numeric_limits<double>::infinity();
  for (const auto& r : p.rules) {
    if (r.action == PolicyAction::kReconfigure &&
        r.event.type == EventType::kA2)
      guard = std::min(guard, r.event.threshold1 - r.event.hysteresis);
  }
  std::vector<GatedRule> out;
  for (const auto& r : p.rules) {
    if (r.action != PolicyAction::kHandover) continue;
    out.push_back({&r, r.stage > 0
                           ? guard
                           : std::numeric_limits<double>::infinity()});
  }
  return out;
}

bool rule_applies_to(const PolicyRule& rule, const CellId& serving,
                     const CellId& target) {
  if (rule.channel == PolicyRule::kAnyChannel) return true;
  if (rule.channel == PolicyRule::kServingChannel)
    return target.channel == serving.channel;
  if (rule.channel == PolicyRule::kOtherChannels)
    return target.channel != serving.channel;
  return rule.channel == target.channel;
}

}  // namespace

std::string conflict_type_label(EventType a, EventType b) {
  std::string sa = event_name(a);
  std::string sb = event_name(b);
  if (sb < sa) std::swap(sa, sb);
  return sa + "-" + sb;
}

std::vector<TwoCellConflict> find_two_cell_conflicts(
    const std::vector<PolicyCell>& cells,
    const std::function<bool(std::size_t, std::size_t)>& pair_filter) {
  std::vector<TwoCellConflict> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      if (pair_filter && !pair_filter(i, j)) continue;
      const auto& ci = cells[i];
      const auto& cj = cells[j];
      const auto rules_i = handover_rules(ci.policy);
      const auto rules_j = handover_rules(cj.policy);
      bool found = false;
      for (const auto& ri : rules_i) {
        if (found) break;
        if (!rule_applies_to(*ri.rule, ci.id, cj.id)) continue;
        for (const auto& rj : rules_j) {
          if (!rule_applies_to(*rj.rule, cj.id, ci.id)) continue;
          Region a = event_region(ri.rule->event);
          Region b = event_region(rj.rule->event);
          a.s_hi = std::min(a.s_hi, ri.serving_upper);
          b.s_hi = std::min(b.s_hi, rj.serving_upper);
          double w1 = 0, w2 = 0;
          if (regions_intersect(a, b, &w1, &w2)) {
            TwoCellConflict c;
            c.cell_i = ci.id.cell;
            c.cell_j = cj.id.cell;
            c.event_i = ri.rule->event.type;
            c.event_j = rj.rule->event.type;
            c.inter_frequency = ci.id.channel != cj.id.channel;
            c.witness_ri = w1;
            c.witness_rj = w2;
            out.push_back(c);
            found = true;  // one conflict per pair, like Table 3 counts
            break;
          }
        }
      }
    }
  }
  return out;
}

std::map<std::string, int> conflict_histogram(
    const std::vector<TwoCellConflict>& conflicts) {
  std::map<std::string, int> hist;
  for (const auto& c : conflicts)
    ++hist[conflict_type_label(c.event_i, c.event_j)];
  return hist;
}

std::vector<TripleViolation> check_theorem2(
    const std::vector<std::vector<double>>& deltas) {
  std::vector<TripleViolation> out;
  const int n = static_cast<int>(deltas.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      for (int k = 0; k < n; ++k) {
        if (k == j) continue;  // i may equal k (2-cell loop case)
        const double sum = deltas[i][j] + deltas[j][k];
        if (sum < 0.0) out.push_back({i, j, k, sum});
      }
    }
  }
  return out;
}

std::vector<std::vector<double>> repair_theorem2(
    std::vector<std::vector<double>> deltas) {
  // Theorem 2 only binds each middle cell j through its *minimum* incoming
  // and outgoing offsets: the condition holds iff for every j,
  // min_i D(i->j) + min_k D(j->k) >= 0. Repair in one O(n^2) pass: for a
  // violating j, raise both minima by half the deficit via per-node
  // floors, then clamp every edge to the floors of both endpoints.
  // Raising offsets can never create a violation, so one pass suffices;
  // compatible matrices get -inf floors and stay untouched.
  const std::size_t n = deltas.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> in_floor(n, -inf), out_floor(n, -inf);
  for (std::size_t j = 0; j < n; ++j) {
    double m_in = inf, m_out = inf;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      m_in = std::min(m_in, deltas[i][j]);
      m_out = std::min(m_out, deltas[j][i]);
    }
    if (m_in == inf || m_out == inf) continue;  // fewer than 2 cells
    const double sum = m_in + m_out;
    if (sum < 0.0) {
      // Lift each minimum by |sum|/2 plus a rounding guard so the
      // repaired sums land strictly at >= 0.
      in_floor[j] = m_in - sum / 2.0 + 1e-9;
      out_floor[j] = m_out - sum / 2.0 + 1e-9;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      deltas[i][j] =
          std::max({deltas[i][j], out_floor[i], in_floor[j]});
    }
  }
  return deltas;
}

bool a3_cycle_satisfiable(const std::vector<double>& cycle_offsets) {
  double sum = 0.0;
  for (double d : cycle_offsets) sum += d;
  return sum < 0.0;
}

std::vector<A3Loop> find_a3_loops(
    const std::vector<PolicyCell>& cells, std::size_t max_len,
    const std::function<bool(std::size_t, std::size_t)>& pair_filter) {
  const std::size_t n = cells.size();
  // Directed A3 edge weights (offset of i's A3 rule applicable to j),
  // or NaN when no edge.
  const double none = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> edge(n, std::vector<double>(n, none));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (pair_filter && !pair_filter(std::min(i, j), std::max(i, j)))
        continue;
      const auto off = cells[i].policy.a3_offset_for(cells[j].id.channel,
                                                     cells[i].id.channel);
      if (off) edge[i][j] = *off;
    }
  }

  std::vector<A3Loop> loops;
  // DFS from each start node, only visiting indices > start so every
  // cycle is enumerated exactly once (anchored at its smallest index).
  std::vector<std::size_t> path;
  std::vector<bool> on_path(n, false);
  const std::function<void(std::size_t, std::size_t, double)> dfs =
      [&](std::size_t start, std::size_t at, double sum) {
        if (path.size() >= 2 && !std::isnan(edge[at][start]) &&
            sum + edge[at][start] < 0.0) {
          A3Loop loop;
          for (const auto idx : path)
            loop.cells.push_back(cells[idx].id.cell);
          loop.offset_sum = sum + edge[at][start];
          loops.push_back(std::move(loop));
        }
        if (path.size() == max_len) return;
        for (std::size_t next = start + 1; next < n; ++next) {
          if (on_path[next] || std::isnan(edge[at][next])) continue;
          path.push_back(next);
          on_path[next] = true;
          dfs(start, next, sum + edge[at][next]);
          on_path[next] = false;
          path.pop_back();
        }
      };
  for (std::size_t start = 0; start < n; ++start) {
    path = {start};
    on_path.assign(n, false);
    on_path[start] = true;
    dfs(start, start, 0.0);
  }
  return loops;
}

}  // namespace rem::mobility
