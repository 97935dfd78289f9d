// Client-side measurement feedback model (§3.1 and Fig. 2a/14a).
//
// Legacy 4G/5G measures cells *sequentially*: intra-frequency cells during
// normal operation, inter-frequency cells only inside pre-allocated
// measurement gaps (typically 6 ms every 40 ms), each cell's report gated
// by its TimeToTrigger. The head-of-line blocking this creates — plus the
// round trips of multi-stage reconfiguration — is the feedback delay the
// paper measures at ~800 ms on HSR.
//
// REM measures one cell per base station and cross-band-estimates the rest,
// eliminating the gap-schedule serialization for co-located cells.
#pragma once

#include "mobility/cell.hpp"

#include <cstddef>
#include <vector>

namespace rem::mobility {

/// One-way report delivery latency [s] (uplink scheduling + HARQ).
constexpr double kReportLatency_s = 0.010;
/// Extra round trip for each multi-stage reconfiguration [s].
constexpr double kReconfigureRtt_s = 0.050;

struct MeasurementConfig {
  /// TimeToTrigger applied after acquisition, intra / inter [s].
  double intra_ttt_s = 0.040;
  double inter_ttt_s = 0.640;
  /// REM: time to run cross-band estimation per base station [s].
  double crossband_runtime_s = 0.0;
};

/// One cell the client has to evaluate before reporting.
struct MeasureTask {
  CellId cell;
  bool intra_frequency = true;
};

/// Time from "measurement needed" to "feedback delivered" for the legacy
/// sequential procedure. `reconfigurations` counts multi-stage round trips
/// that happened before the final report (0 for single-stage).
double legacy_feedback_delay_s(const std::vector<MeasureTask>& tasks,
                               const MeasurementConfig& cfg,
                               int reconfigurations = 0);

/// Feedback delay under REM: one measured cell per base station (preferring
/// intra-frequency), cross-band estimation for co-located cells, no
/// multi-stage round trips, no inter-frequency gaps for co-located cells.
/// Cells whose base station hosts no measurable intra-frequency cell still
/// need one gap-based acquisition.
double rem_feedback_delay_s(const std::vector<MeasureTask>& tasks,
                            const MeasurementConfig& cfg);

/// Spectrum fraction lost to measurement gaps while `inter_cells` cells
/// are being monitored without cross-band estimation (§3.2's
/// 38.3-61.7% MeasurementGap cost when multi-stage policies are disabled).
double gap_spectrum_overhead(bool gaps_active);

}  // namespace rem::mobility
