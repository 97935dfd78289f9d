// Load-aware tie-break shared by the legacy and REM managers (cascade
// resilience): when several handover candidates are about as strong as the
// chosen target, steer toward the one whose base station advertises the
// lowest control-plane load.
#pragma once

#include "sim/simulator.hpp"

#include <cstddef>
#include <vector>

namespace rem::core {

/// Cascade resilience, both managers: when other candidates sit within
/// this band (dB of the policy metric) of the chosen target, steer toward
/// the lowest advertised control-plane load. For REM every in-band
/// candidate already cleared the coordinated A3 threshold, so the
/// Theorem-2 pairwise offset-sum condition holds for whichever wins. Inert
/// while nothing advertises load (the simulator's default).
constexpr double kLoadTieBandDb = 1.5;

/// One handover candidate of this tick.
struct LoadCandidate {
  double metric;     ///< policy metric the candidate qualified with (dB)
  std::size_t idx;   ///< cell index
  double load;       ///< Observation::advertised_load; < 0 = unknown
};

/// Among `candidates` whose metric lies within `band_db` of
/// `chosen_metric`, move `decision.target_idx` to the lowest advertised
/// load (unknown reads as a neutral 0.5); ties go to the higher metric,
/// then the lower cell index. Only a known load inside the band can move
/// the choice, so runs without load advertisement keep the target
/// bit-for-bit. When the target moves and the fallback was the new
/// target, the displaced target becomes the fallback. band_db <= 0
/// disables the tie-break.
void load_aware_tie_break(const std::vector<LoadCandidate>& candidates,
                          double chosen_metric, double band_db,
                          sim::HandoverDecision& decision);

}  // namespace rem::core
