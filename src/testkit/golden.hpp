// Golden-trace regression corpus: canonical (scenario, seed, fault
// schedule) triples, exact digests of what the simulator produced for
// them, and a flat-JSON codec so the digests can live in version control.
//
// A digest captures every scalar of both managers' SimStats plus an exact
// hash of the full signaling event log, so any behavioral drift — a
// reordered RNG draw, a changed timer path, a different failure
// classification — shows up as a named field diff rather than a silently
// shifted benchmark number. `scripts/update_goldens.sh` regenerates the
// corpus when a change is intentional.
#pragma once

#include "sim/simulator.hpp"
#include "trace/scenario.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rem::testkit {

/// One canonical corpus entry. `fault_preset` names a schedule from
/// golden_fault_preset(); the digest file is `<name>.json`.
struct GoldenCase {
  std::string name;
  trace::Route route = trace::Route::kLowMobilityLA;
  double speed_kmh = 60.0;
  double duration_s = 120.0;
  std::uint64_t seed = 1;
  std::string fault_preset = "none";
};

/// The committed corpus: all three routes across the four speed buckets
/// (low-mobility LA, 220-250, 300, 330 km/h), fault-free and mixed-fault
/// schedules, distinct seeds.
std::vector<GoldenCase> golden_corpus();

/// One fleet corpus entry: a multi-UE run_fleet scenario digested for
/// regression. The digest file is `<name>.json` alongside the single-UE
/// corpus; names carry a `fleet_` prefix.
struct FleetGoldenCase {
  std::string name;
  trace::Route route = trace::Route::kBeijingShanghai;
  double speed_kmh = 300.0;
  double duration_s = 60.0;
  std::uint64_t seed = 15;
  std::string fault_preset = "none";
  int fleet_size = 8;
};

/// The committed fleet corpus: a small fleet contending for BS capacity
/// under the overload/shed schedule, and a fleet riding out backhaul
/// partitions. Fleet digests are thread-count-stable by construction
/// (per-UE stats merge in UE-id order).
std::vector<FleetGoldenCase> fleet_golden_corpus();

/// Named fault schedules shared by the generator and the replay test.
/// "none" is empty; "mixed" scripts one window of every fault kind inside
/// [0, horizon_s) plus a seeded random duplication spec. Throws
/// std::invalid_argument for unknown names.
sim::FaultConfig golden_fault_preset(const std::string& name,
                                     double horizon_s);

/// Arm the cascade-resilience stack the correlated-fault presets run
/// with: stale-bounded load ads (1 s), per-target circuit breakers (trip
/// after 2 consecutive failures, 1.5 s cool-down) and 50% storm jitter.
void arm_resilience(sim::SimConfig& cfg);

/// The whole scenario a golden preset names: make_scenario(route, speed,
/// duration) with the preset's fault schedule, events recorded, and the
/// settings each preset pairs with:
///  - "backhaul_loss_reorder": a transport that also loses (2%), reorders
///    (15%) and duplicates (10%) frames, so every frame path shows up;
///  - "region_outage", "cascade_storm": arm_resilience();
///  - "cascade_storm": single-slot stations with 4-deep queues and a 0.5
///    admission threshold, so the cascade's background load forces
///    admission busy-rejects and the breakers trip, probe and close.
/// Throws std::invalid_argument for unknown names.
trace::Scenario golden_scenario(trace::Route route, double speed_kmh,
                                double duration_s, const std::string& preset);

/// Order-sensitive FNV-1a hash over the raw bits of every event field.
/// Hashing bits (not formatted text) keeps the digest independent of
/// float-printing choices while still catching any numeric drift.
std::uint64_t hash_event_log(const sim::EventLog& log);

/// Exact, diffable snapshot of one golden run: ordered (field, value)
/// pairs. Values are pre-formatted strings — integers in decimal, doubles
/// as %.17g (lossless round-trip), hashes in hex — so comparison is exact
/// string equality with no reparsing tolerance.
struct TraceDigest {
  std::string case_name;
  std::vector<std::pair<std::string, std::string>> fields;
};

/// Build the digest for a golden case from both managers' stats (event
/// logs must have been recorded: SimConfig::record_events on).
TraceDigest make_digest(const GoldenCase& c, const sim::SimStats& legacy,
                        const sim::SimStats& rem);

/// Build the digest for a fleet case from both managers' fleet results:
/// the full aggregate stats per manager plus a compact per-UE pin
/// (handovers, failures, event-log hash — bit-exact) so drift in any
/// single UE's behavior names that UE.
TraceDigest make_fleet_digest(const FleetGoldenCase& c,
                              const sim::FleetResult& legacy,
                              const sim::FleetResult& rem);

/// Digests on the shared flat-JSON codec (common/flat_json.hpp): a `case`
/// key, then one string value per field in the order produced. The reader
/// rejects malformed input with the offending line and content; the
/// writer throws std::invalid_argument naming a key or value that holds a
/// newline.
void write_digest_json(const TraceDigest& d, std::ostream& os);
TraceDigest read_digest_json(std::istream& is);
TraceDigest read_digest_json_file(const std::string& path);
void write_digest_json_file(const TraceDigest& d, const std::string& path);

/// Per-field comparison: one human-readable line per missing, extra, or
/// differing field. Empty result means the digests match exactly.
std::vector<std::string> diff_digests(const TraceDigest& expected,
                                      const TraceDigest& actual);

/// Exact comparison of two runs' statistics: every scalar of the stats
/// table (sim/stats_table.hpp; doubles compared with ==, no tolerance),
/// the Table 2 split, the sample vectors, and the event log by size and
/// bit-exact hash. Returns one line per differing field, newline-joined;
/// an empty string means the runs are identical.
std::string diff_stats(const sim::SimStats& a, const sim::SimStats& b);

}  // namespace rem::testkit
