// CSV export/import of simulated signaling event logs — the repo's
// equivalent of the operational datasets in Table 4. One row per
// control-plane event: time, kind, serving cell, target cell, serving SNR.
#pragma once

#include "sim/events.hpp"

#include <iosfwd>
#include <string>

namespace rem::trace {

/// Serialize an event log as CSV (with a header row). Doubles are written
/// with common::flat_json::format_double, so every column round-trips
/// through read_event_csv bit for bit.
void write_event_csv(const sim::EventLog& log, std::ostream& os);
void write_event_csv_file(const sim::EventLog& log,
                          const std::string& path);

/// Parse an event log written by write_event_csv. Numbers follow the
/// flat-JSON number rule (common/flat_json.hpp: no leading whitespace,
/// '+' or hex); `t_s` must also be finite. Throws std::runtime_error
/// "event CSV line N: ..." naming the field and quoting its text on
/// malformed input.
sim::EventLog read_event_csv(std::istream& is);

/// Summary statistics straight from a log (handover interval, failure
/// counts) — the first-pass analysis the paper runs over its captures.
struct LogSummary {
  std::size_t handovers = 0;
  std::size_t failures = 0;
  std::size_t report_losses = 0;
  std::size_t command_losses = 0;
  std::size_t report_retransmits = 0;
  std::size_t t304_expiries = 0;
  std::size_t duplicate_commands = 0;
  std::size_t fault_windows = 0;     ///< fault_start events
  std::size_t degraded_episodes = 0; ///< degraded_enter events
  // Backhaul preparation / context-fetch events (rem::net transport).
  std::size_t prep_retries = 0;
  std::size_t prep_rejects = 0;
  std::size_t prep_fallbacks = 0;
  std::size_t prep_failures = 0;
  std::size_t context_fetch_failures = 0;
  double mean_handover_interval_s = 0.0;
};
LogSummary summarize_event_log(const sim::EventLog& log);

}  // namespace rem::trace
