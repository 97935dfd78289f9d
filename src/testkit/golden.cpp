#include "testkit/golden.hpp"

#include "common/flat_json.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace rem::testkit {
namespace {

std::string fmt_int(long long v) { return std::to_string(v); }

using common::flat_json::format_double;

std::string fmt_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <class T>
std::string fmt_stat(T v) {
  if constexpr (std::is_floating_point_v<T>)
    return format_double(v);
  else
    return fmt_int(static_cast<long long>(v));
}

void append_stats_fields(const std::string& prefix, const sim::SimStats& s,
                         TraceDigest& d) {
  auto put = [&](const std::string& k, std::string v) {
    d.fields.emplace_back(prefix + k, std::move(v));
  };
  const auto cause = [&](sim::FailureCause c) {
    const auto it = s.failures_by_cause.find(c);
    return fmt_int(it != s.failures_by_cause.end() ? it->second : 0);
  };
  // The scalars in table order, under each row's digest policy. kNonzero
  // rows (the cascade-resilience counters) appear only when set, so cases
  // that never arm those features digest as they did before they existed.
  sim::for_each_stat([&](const sim::StatField& f, auto field) {
    const auto v = s.*field;
    if (f.digest == sim::StatDigest::kOmit ||
        (f.digest == sim::StatDigest::kNonzero && v == 0))
      return;
    put(f.name, fmt_stat(v));
    if (std::string_view(f.name) != "failures") return;
    // The Table 2 split follows its total.
    put("failures.feedback", cause(sim::FailureCause::kFeedbackDelayLoss));
    put("failures.missed_cell", cause(sim::FailureCause::kMissedCell));
    put("failures.cmd_loss", cause(sim::FailureCause::kHoCommandLoss));
    put("failures.hole", cause(sim::FailureCause::kCoverageHole));
  });
  put("outage_count", fmt_int(static_cast<long long>(
                          s.outage_durations_s.size())));
  double outage_sum = 0.0;
  for (double v : s.outage_durations_s) outage_sum += v;
  put("outage_sum_s", format_double(outage_sum));
  put("feedback_count", fmt_int(static_cast<long long>(
                            s.feedback_delays_s.size())));
  double fb_sum = 0.0;
  for (double v : s.feedback_delays_s) fb_sum += v;
  put("feedback_sum_s", format_double(fb_sum));
  put("pre_failure_snr_count",
      fmt_int(static_cast<long long>(s.pre_failure_snrs_db.size())));
  put("event_count", fmt_int(static_cast<long long>(s.events.size())));
  put("event_hash", fmt_hex(hash_event_log(s.events)));
}

}  // namespace

std::vector<GoldenCase> golden_corpus() {
  using trace::Route;
  return {
      {"la_30_s9_none", Route::kLowMobilityLA, 30.0, 120.0, 9, "none"},
      {"la_60_s1_none", Route::kLowMobilityLA, 60.0, 120.0, 1, "none"},
      {"la_60_s2_mixed", Route::kLowMobilityLA, 60.0, 120.0, 2, "mixed"},
      {"bt_220_s10_mixed", Route::kBeijingTaiyuan, 220.0, 120.0, 10,
       "mixed"},
      {"bt_250_s3_none", Route::kBeijingTaiyuan, 250.0, 120.0, 3, "none"},
      {"bt_250_s4_mixed", Route::kBeijingTaiyuan, 250.0, 120.0, 4, "mixed"},
      {"bs_300_s5_none", Route::kBeijingShanghai, 300.0, 120.0, 5, "none"},
      {"bs_300_s6_mixed", Route::kBeijingShanghai, 300.0, 120.0, 6, "mixed"},
      {"bs_330_s7_none", Route::kBeijingShanghai, 330.0, 120.0, 7, "none"},
      {"bs_330_s8_mixed", Route::kBeijingShanghai, 330.0, 120.0, 8, "mixed"},
      {"bs_300_s11_backhaul_partition", Route::kBeijingShanghai, 300.0,
       120.0, 11, "backhaul_partition"},
      {"bt_250_s12_backhaul_loss_reorder", Route::kBeijingTaiyuan, 250.0,
       120.0, 12, "backhaul_loss_reorder"},
      {"bs_300_s13_bs_overload_shed", Route::kBeijingShanghai, 300.0, 120.0,
       13, "bs_overload_shed"},
      {"bt_250_s14_bs_crash_restart", Route::kBeijingTaiyuan, 250.0, 120.0,
       14, "bs_crash_restart"},
  };
}

std::vector<FleetGoldenCase> fleet_golden_corpus() {
  using trace::Route;
  return {
      {"fleet_bs_300_s15_bs_overload_shed", Route::kBeijingShanghai, 300.0,
       60.0, 15, "bs_overload_shed", 6},
      {"fleet_bt_250_s16_backhaul_partition", Route::kBeijingTaiyuan, 250.0,
       60.0, 16, "backhaul_partition", 8},
      {"fleet_bt_250_s17_region_outage", Route::kBeijingTaiyuan, 250.0,
       60.0, 17, "region_outage", 8},
      {"fleet_bs_300_s18_cascade_storm", Route::kBeijingShanghai, 300.0,
       60.0, 18, "cascade_storm", 6},
  };
}

sim::FaultConfig golden_fault_preset(const std::string& name,
                                     double horizon_s) {
  if (name == "none") return {};
  if (name == "mixed") {
    // One scripted window of every fault kind, spread across the horizon
    // (fractions of the horizon so shorter runs still see every kind),
    // plus a seeded random duplication spec exercising the generated path.
    sim::FaultConfig fc;
    fc.windows = {
        {sim::FaultKind::kSignalingLoss, 0.10 * horizon_s, 2.0, 0.6},
        {sim::FaultKind::kSignalingLoss, 0.55 * horizon_s, 2.0, 0.8},
        {sim::FaultKind::kPilotOutage, 0.25 * horizon_s, 3.0, 4.0},
        {sim::FaultKind::kProcessingStall, 0.40 * horizon_s, 2.0, 0.35},
        {sim::FaultKind::kCoverageBlackout, 0.70 * horizon_s, 1.5, 25.0},
    };
    sim::RandomFaultSpec dup;
    dup.kind = sim::FaultKind::kCommandDuplication;
    dup.mean_gap_s = 0.4 * horizon_s;
    dup.duration_lo_s = 1.0;
    dup.duration_hi_s = 3.0;
    dup.magnitude_lo = 0.3;
    dup.magnitude_hi = 0.7;
    fc.random = {dup};
    return fc;
  }
  if (name == "backhaul_partition") {
    // Two backhaul partition windows, each spanning a tenth of the run so
    // they reliably straddle handover preparations — the first long enough
    // to exhaust the prep retry budget (fallback/failure paths), the
    // second shorter — plus a delay spike between them.
    sim::FaultConfig fc;
    fc.windows = {
        {sim::FaultKind::kBackhaulPartition, 0.15 * horizon_s,
         0.10 * horizon_s, 1.0},
        {sim::FaultKind::kBackhaulDelay, 0.45 * horizon_s, 4.0, 0.020},
        {sim::FaultKind::kBackhaulPartition, 0.70 * horizon_s,
         0.05 * horizon_s, 1.0},
    };
    return fc;
  }
  if (name == "backhaul_loss_reorder") {
    // Sustained 10% extra frame loss (the acceptance bound) over most of
    // the horizon, with a heavier burst on top and a delay wobble.
    // golden_scenario pairs this preset with a lossy transport
    // (reorder/duplicate probabilities raised) so both transport paths
    // land in the digest.
    sim::FaultConfig fc;
    fc.windows = {
        {sim::FaultKind::kBackhaulLoss, 0.10 * horizon_s, 0.60 * horizon_s,
         0.10},
        {sim::FaultKind::kBackhaulLoss, 0.75 * horizon_s, 2.0, 0.50},
        {sim::FaultKind::kBackhaulDelay, 0.30 * horizon_s, 3.0, 0.008},
    };
    return fc;
  }
  if (name == "bs_overload_shed") {
    // Two capacity squeezes on the serving-side control plane: a full
    // saturation window (u = 1.0 fills every slot and queue position, so
    // UE jobs are shed) and a long near-saturation window (u = 0.85:
    // long queue waits and admission busy-rejects, not sheds).
    sim::FaultConfig fc;
    fc.windows = {
        {sim::FaultKind::kBsOverload, 0.15 * horizon_s, 0.30 * horizon_s,
         1.0},
        {sim::FaultKind::kBsOverload, 0.60 * horizon_s, 0.25 * horizon_s,
         0.85},
    };
    return fc;
  }
  if (name == "bs_crash_restart") {
    // Two crash-restart windows on the serving BS (magnitude < 2 picks
    // whatever is serving at window open): a long one where the UE's
    // context fetch hits the still-dead BS (dropped in flight, fetch
    // times out), and a short one where the victim restarts before the
    // fetch arrives — answering stale, the restart-recovery path.
    sim::FaultConfig fc;
    fc.windows = {
        {sim::FaultKind::kBsCrashRestart, 0.25 * horizon_s,
         0.08 * horizon_s, 1.0},
        {sim::FaultKind::kBsCrashRestart, 0.65 * horizon_s, 1.5, 1.0},
    };
    return fc;
  }
  if (name == "region_outage") {
    // Two correlated domain blackouts with staggered member onsets
    // (magnitude < 2 picks the serving cell's whole failure domain at
    // window open); the second window is shorter, exercising revive
    // ordering while the fleet is still re-attaching.
    sim::FaultConfig fc;
    fc.domain_size = 3;
    fc.region_stagger_s = 0.02 * horizon_s;
    fc.windows = {
        {sim::FaultKind::kRegionOutage, 0.25 * horizon_s, 0.12 * horizon_s,
         1.0},
        {sim::FaultKind::kRegionOutage, 0.65 * horizon_s, 0.08 * horizon_s,
         1.0},
    };
    return fc;
  }
  if (name == "cascade_storm") {
    // A serving-BS crash whose shed load floods the surviving neighbors:
    // the cascade window brackets the crash (its trigger) so background
    // jobs keep topping the neighbors up while the fleet steers around
    // them; golden_scenario arms breakers and storm damping.
    sim::FaultConfig fc;
    fc.cascade_neighbor_radius = 2;
    fc.windows = {
        {sim::FaultKind::kBsCrashRestart, 0.25 * horizon_s,
         0.15 * horizon_s, 1.0},
        {sim::FaultKind::kCascadeOverload, 0.25 * horizon_s,
         0.40 * horizon_s, 0.9},
    };
    return fc;
  }
  throw std::invalid_argument("golden_fault_preset: unknown preset '" +
                              name + "'");
}

void arm_resilience(sim::SimConfig& cfg) {
  cfg.load_ad_staleness_s = 1.0;
  cfg.breaker_trip_k = 2;
  cfg.breaker_cooldown_s = 1.5;
  cfg.storm_jitter_frac = 0.5;
}

trace::Scenario golden_scenario(trace::Route route, double speed_kmh,
                                double duration_s, const std::string& preset) {
  auto sc = trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.faults = golden_fault_preset(preset, duration_s);
  sc.sim.record_events = true;
  if (preset == "backhaul_loss_reorder") {
    sc.sim.backhaul.loss_prob = 0.02;
    sc.sim.backhaul.reorder_prob = 0.15;
    sc.sim.backhaul.duplicate_prob = 0.10;
  }
  if (preset == "region_outage" || preset == "cascade_storm")
    arm_resilience(sc.sim);
  if (preset == "cascade_storm") {
    sc.sim.bs_capacity.slots = 1;
    sc.sim.bs_capacity.queue_capacity = 4;
    sc.sim.bs_capacity.admission_load_threshold = 0.5;
  }
  return sc;
}

std::uint64_t hash_event_log(const sim::EventLog& log) {
  // FNV-1a, 64-bit. Mix every field of every event through the raw bytes
  // of its in-memory value; doubles hash their bit pattern.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(&bits, sizeof(bits));
  };
  const auto mix_int = [&](int v) {
    const std::int64_t w = v;
    mix(&w, sizeof(w));
  };
  for (const auto& e : log) {
    mix_double(e.t_s);
    mix_int(static_cast<int>(e.kind));
    mix_int(e.serving_cell);
    mix_int(e.target_cell);
    mix_double(e.serving_snr_db);
  }
  return h;
}

TraceDigest make_digest(const GoldenCase& c, const sim::SimStats& legacy,
                        const sim::SimStats& rem) {
  TraceDigest d;
  d.case_name = c.name;
  d.fields.emplace_back("route", trace::route_name(c.route));
  d.fields.emplace_back("speed_kmh", format_double(c.speed_kmh));
  d.fields.emplace_back("duration_s", format_double(c.duration_s));
  d.fields.emplace_back("seed", fmt_int(static_cast<long long>(c.seed)));
  d.fields.emplace_back("faults", c.fault_preset);
  append_stats_fields("legacy.", legacy, d);
  append_stats_fields("rem.", rem, d);
  return d;
}

TraceDigest make_fleet_digest(const FleetGoldenCase& c,
                              const sim::FleetResult& legacy,
                              const sim::FleetResult& rem) {
  TraceDigest d;
  d.case_name = c.name;
  d.fields.emplace_back("route", trace::route_name(c.route));
  d.fields.emplace_back("speed_kmh", format_double(c.speed_kmh));
  d.fields.emplace_back("duration_s", format_double(c.duration_s));
  d.fields.emplace_back("seed", fmt_int(static_cast<long long>(c.seed)));
  d.fields.emplace_back("faults", c.fault_preset);
  d.fields.emplace_back("fleet_size", fmt_int(c.fleet_size));
  const auto append_fleet = [&](const std::string& prefix,
                                const sim::FleetResult& r) {
    append_stats_fields(prefix + "fleet.", r.aggregate, d);
    for (std::size_t k = 0; k < r.per_ue.size(); ++k) {
      const auto& s = r.per_ue[k];
      const std::string ue = prefix + "ue" + std::to_string(k) + ".";
      d.fields.emplace_back(ue + "handovers", fmt_int(s.handovers));
      d.fields.emplace_back(ue + "failures", fmt_int(s.failures));
      d.fields.emplace_back(ue + "event_hash",
                            fmt_hex(hash_event_log(s.events)));
    }
  };
  append_fleet("legacy.", legacy);
  append_fleet("rem.", rem);
  return d;
}

void write_digest_json(const TraceDigest& d, std::ostream& os) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(d.fields.size() + 1);
  out.emplace_back("case", d.case_name);
  out.insert(out.end(), d.fields.begin(), d.fields.end());
  common::flat_json::write(os, out);
}

void write_digest_json_file(const TraceDigest& d, const std::string& path) {
  common::flat_json::write_file(
      "write_digest_json_file", path,
      [&](std::ostream& os) { write_digest_json(d, os); });
}

TraceDigest read_digest_json(std::istream& is) {
  // The shared flat-JSON reader does all the checking; a digest is just
  // its 'case' plus every other pair in file order.
  TraceDigest d;
  bool have_case = false;
  for (auto& e : common::flat_json::read(is, "digest")) {
    if (e.key == "case") {
      d.case_name = std::move(e.value);
      have_case = true;
    } else {
      d.fields.emplace_back(std::move(e.key), std::move(e.value));
    }
  }
  if (!have_case)
    throw std::runtime_error("digest JSON: missing the 'case' key");
  return d;
}

TraceDigest read_digest_json_file(const std::string& path) {
  return common::flat_json::read_file("read_digest_json_file", path,
                                      read_digest_json);
}

std::string diff_stats(const sim::SimStats& a, const sim::SimStats& b) {
  std::string out;
  const auto differ = [&out](const std::string& line) {
    out += (out.empty() ? "" : "\n") + line;
  };
  sim::for_each_stat([&](const sim::StatField& f, auto field) {
    if (a.*field != b.*field)
      differ(std::string(f.name) + ": " + fmt_stat(a.*field) + " vs " +
             fmt_stat(b.*field));
  });
  if (a.failures_by_cause != b.failures_by_cause)
    differ("failures_by_cause differs");
  const auto samples = [&](const char* name, const std::vector<double>& va,
                           const std::vector<double>& vb) {
    if (va != vb)
      differ(std::string(name) + " differs (" + std::to_string(va.size()) +
             " vs " + std::to_string(vb.size()) + " samples)");
  };
  samples("outage_durations_s", a.outage_durations_s, b.outage_durations_s);
  samples("feedback_delays_s", a.feedback_delays_s, b.feedback_delays_s);
  samples("pre_failure_snrs_db", a.pre_failure_snrs_db,
          b.pre_failure_snrs_db);
  if (a.events.size() != b.events.size() ||
      hash_event_log(a.events) != hash_event_log(b.events))
    differ("events differ (" + std::to_string(a.events.size()) + " vs " +
           std::to_string(b.events.size()) + " events, hash " +
           fmt_hex(hash_event_log(a.events)) + " vs " +
           fmt_hex(hash_event_log(b.events)) + ")");
  return out;
}

std::vector<std::string> diff_digests(const TraceDigest& expected,
                                      const TraceDigest& actual) {
  std::vector<std::string> out;
  if (expected.case_name != actual.case_name)
    out.push_back("case: expected '" + expected.case_name + "', got '" +
                  actual.case_name + "'");
  std::map<std::string, std::string> exp, act;
  for (const auto& [k, v] : expected.fields) exp[k] = v;
  for (const auto& [k, v] : actual.fields) act[k] = v;
  for (const auto& [k, v] : exp) {
    const auto it = act.find(k);
    if (it == act.end())
      out.push_back(k + ": missing from the new run (expected '" + v + "')");
    else if (it->second != v)
      out.push_back(k + ": expected '" + v + "', got '" + it->second + "'");
  }
  for (const auto& [k, v] : act)
    if (exp.find(k) == exp.end())
      out.push_back(k + ": new field not in the golden digest (value '" + v +
                    "')");
  return out;
}

}  // namespace rem::testkit
