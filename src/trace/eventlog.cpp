#include "trace/eventlog.hpp"

#include "common/flat_json.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace rem::trace {
namespace {

namespace fj = common::flat_json;

/// The CSV parse map, built from sim::event_kind_name so the names live in
/// one place.
const std::map<std::string, sim::EventKind>& kind_by_name() {
  static const auto m = [] {
    std::map<std::string, sim::EventKind> out;
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      const auto kind = static_cast<sim::EventKind>(k);
      out.emplace(sim::event_kind_name(kind), kind);
    }
    return out;
  }();
  return m;
}

/// Parse one numeric field under the flat-JSON number rule, turning its
/// std::invalid_argument into an error that names the field and quotes
/// the offending text.
template <typename Parse>
auto parse_field(const std::string& field, const char* name, Parse parse) {
  try {
    return parse(field);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(std::string("bad ") + name + " '" + field +
                             "'");
  }
}

}  // namespace

void write_event_csv(const sim::EventLog& log, std::ostream& os) {
  os << "t_s,kind,serving_cell,target_cell,serving_snr_db\n";
  for (const auto& e : log) {
    os << fj::format_double(e.t_s) << ',' << sim::event_kind_name(e.kind)
       << ',' << e.serving_cell << ',' << e.target_cell << ','
       << fj::format_double(e.serving_snr_db) << '\n';
  }
}

void write_event_csv_file(const sim::EventLog& log,
                          const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  write_event_csv(log, f);
}

sim::EventLog read_event_csv(std::istream& is) {
  sim::EventLog log;
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error("event CSV: empty input");
  if (line.rfind("t_s,", 0) != 0)
    throw std::runtime_error("event CSV: missing header");
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Split first so a short/long row is rejected as a field-count error
    // naming the line, not as a misleading conversion failure.
    std::vector<std::string> fields;
    std::istringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    sim::SignalingEvent e;
    try {
      if (fields.size() != 5)
        throw std::runtime_error("expected 5 fields, got " +
                                 std::to_string(fields.size()) + " in '" +
                                 line + "'");
      e.t_s = parse_field(fields[0], "t_s", fj::parse_double);
      if (!std::isfinite(e.t_s))
        throw std::runtime_error("bad t_s '" + fields[0] + "'");
      const auto it = kind_by_name().find(fields[1]);
      if (it == kind_by_name().end())
        throw std::runtime_error("unknown kind '" + fields[1] + "'");
      e.kind = it->second;
      e.serving_cell = parse_field(fields[2], "serving_cell", fj::parse_int);
      e.target_cell = parse_field(fields[3], "target_cell", fj::parse_int);
      e.serving_snr_db =
          parse_field(fields[4], "serving_snr_db", fj::parse_double);
    } catch (const std::exception& ex) {
      throw std::runtime_error("event CSV line " +
                               std::to_string(line_no) + ": " + ex.what());
    }
    log.push_back(e);
  }
  return log;
}

LogSummary summarize_event_log(const sim::EventLog& log) {
  LogSummary s;
  double first_ho = -1.0, last_ho = -1.0;
  for (const auto& e : log) {
    switch (e.kind) {
      case sim::EventKind::kHandoverComplete:
        ++s.handovers;
        if (first_ho < 0) first_ho = e.t_s;
        last_ho = e.t_s;
        break;
      case sim::EventKind::kRadioLinkFailure: ++s.failures; break;
      case sim::EventKind::kReportLost: ++s.report_losses; break;
      case sim::EventKind::kHoCommandLost: ++s.command_losses; break;
      case sim::EventKind::kReportRetransmit: ++s.report_retransmits; break;
      case sim::EventKind::kT304Expiry: ++s.t304_expiries; break;
      case sim::EventKind::kHoCommandDuplicate:
        ++s.duplicate_commands;
        break;
      case sim::EventKind::kFaultStart: ++s.fault_windows; break;
      case sim::EventKind::kDegradedEnter: ++s.degraded_episodes; break;
      case sim::EventKind::kPrepRetry: ++s.prep_retries; break;
      case sim::EventKind::kPrepReject: ++s.prep_rejects; break;
      case sim::EventKind::kPrepFallback: ++s.prep_fallbacks; break;
      case sim::EventKind::kPrepFailed: ++s.prep_failures; break;
      case sim::EventKind::kContextFetchFailed:
        ++s.context_fetch_failures;
        break;
      default: break;
    }
  }
  if (s.handovers >= 2)
    s.mean_handover_interval_s =
        (last_ho - first_ho) / static_cast<double>(s.handovers - 1);
  return s;
}

}  // namespace rem::trace
