// Policy conflict analysis (§3.2, Table 3) and REM's conflict-freedom
// guarantees (§5.3, Theorems 2 & 3).
//
// A two-cell conflict exists when cell i's policy would hand a client to
// cell j while cell j's policy would simultaneously hand it back — i.e.
// the conjunction of the two trigger regions is satisfiable somewhere in
// the metric space. Trigger regions here are conjunctions of interval and
// difference constraints over (R_i, R_j), so satisfiability is exact.
#pragma once

#include "mobility/policy.hpp"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rem::mobility {

/// A detected two-cell conflict.
struct TwoCellConflict {
  int cell_i = 0;
  int cell_j = 0;
  EventType event_i;       ///< i -> j trigger
  EventType event_j;       ///< j -> i trigger
  bool inter_frequency = false;
  /// A witness point (R_i, R_j) where both policies fire.
  double witness_ri = 0.0;
  double witness_rj = 0.0;
};

/// Key "A3-A4" style label matching Table 3 (alphabetical order).
std::string conflict_type_label(EventType a, EventType b);

/// A cell's policy plus identity, as input to the analyzer.
struct PolicyCell {
  CellId id;
  CellPolicy policy;
};

/// Exhaustive exact two-cell conflict detection. `pair_filter(i, j)`
/// restricts which index pairs are considered (e.g. only cells covering
/// the same area — the paper's Table 3 counts neighbors, not the whole
/// route); pass an empty function to test every pair.
std::vector<TwoCellConflict> find_two_cell_conflicts(
    const std::vector<PolicyCell>& cells,
    const std::function<bool(std::size_t, std::size_t)>& pair_filter = {});

/// Count conflicts per type label (the Table 3 histogram).
std::map<std::string, int> conflict_histogram(
    const std::vector<TwoCellConflict>& conflicts);

/// Theorem 2 precondition: for all cells i, j, k covering the same area
/// (j != i, k; i may equal k), Delta_A3(i->j) + Delta_A3(j->k) >= 0.
/// `deltas[i][j]` is cell i's A3 offset toward cell j. Returns the list of
/// violated (i, j, k) triples (empty = conflict-free by Theorems 2/3).
struct TripleViolation {
  int i, j, k;
  double sum;  ///< Delta(i->j) + Delta(j->k) < 0
};
std::vector<TripleViolation> check_theorem2(
    const std::vector<std::vector<double>>& deltas);

/// Minimally raise offsets until Theorem 2 holds: repeatedly lift the
/// smaller offset of the most-violated adjacent pair. Preserves offsets
/// that are already compatible. Returns the repaired matrix.
std::vector<std::vector<double>> repair_theorem2(
    std::vector<std::vector<double>> deltas);

/// n-cell persistent-loop satisfiability for pure-A3 policies: the cycle
/// c_0 -> c_1 -> ... -> c_{n-1} -> c_0 is satisfiable iff the offsets sum
/// negative (proof of Theorem 2). Exposed for tests and benches.
bool a3_cycle_satisfiable(const std::vector<double>& cycle_offsets);

/// An n-cell persistent loop found by enumeration.
struct A3Loop {
  std::vector<int> cells;  ///< cell ids along the cycle (length n)
  double offset_sum;       ///< sum of A3 offsets along the cycle (< 0)
};

/// Enumerate satisfiable A3 loops of length up to `max_len` among the
/// given cells (pure-A3 / simplified policies; edges exist where cell i
/// has an A3 rule applicable to cell j). `pair_filter(i, j)` restricts
/// edges to cells covering common ground, as in find_two_cell_conflicts.
/// Each loop is reported once (lowest cell id first). Complexity grows
/// combinatorially in max_len — intended for neighbor-filtered sets.
std::vector<A3Loop> find_a3_loops(
    const std::vector<PolicyCell>& cells, std::size_t max_len = 4,
    const std::function<bool(std::size_t, std::size_t)>& pair_filter = {});

}  // namespace rem::mobility
