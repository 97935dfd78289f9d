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

}  // namespace rem::trace
