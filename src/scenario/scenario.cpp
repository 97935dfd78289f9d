#include "scenario/scenario.hpp"

#include "common/flat_json.hpp"
#include "common/units.hpp"
#include "net/backhaul.hpp"
#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

namespace rem::scenario {
namespace {

namespace fj = common::flat_json;

// ---------------------------------------------------------------------------
// formatting and parsing helpers (shared by the canonical writer, the
// reader and digest_fields)

using fj::format_double;

std::string fmt_bool(bool v) { return v ? "true" : "false"; }

/// Rejects the value of one key: "scenario JSON key '<key>': <why>".
[[noreturn]] void bad(const std::string& key, const std::string& why) {
  throw std::runtime_error("scenario JSON key '" + key + "': " + why);
}

/// A flat_json typed parse whose failure is reported against `key`.
template <typename Parse>
auto parse_key(const std::string& key, const std::string& s, Parse parse)
    -> decltype(parse(s)) {
  try {
    return parse(s);
  } catch (const std::invalid_argument& e) {
    bad(key, e.what());
  }
}

// ---------------------------------------------------------------------------
// schema vocabulary

constexpr const char* kSchemaName = "rem-scenario-v1";

/// The convenience UE classes the schema names directly. `ue.pedestrian`,
/// `ue.vehicular` and `ue.hst350` are count shorthands that expand to
/// these bands, in this order (the canonical fill order: slow to fast).
struct NamedClass {
  const char* key;
  const char* name;
  double lo_kmh, hi_kmh;
};
constexpr NamedClass kNamedClasses[] = {
    {"ue.pedestrian", "pedestrian", 3.0, 6.0},
    {"ue.vehicular", "vehicular", 40.0, 100.0},
    {"ue.hst350", "hst350", 300.0, 350.0},
};

/// Physical ceiling for any configured speed (km/h) — a little above the
/// paper's 350 km/h operating point, far below anything the propagation
/// model was calibrated for.
constexpr double kMaxSpeedKmh = 600.0;

sim::BsCapacityConfig bs_profile_preset(const std::string& profile) {
  sim::BsCapacityConfig c;  // "macro": the model defaults
  if (profile == "macro") return c;
  if (profile == "small_cell") {
    // One processing slot, shallow queue, early admission pushback — the
    // street-furniture cell that saturates first under a signaling storm.
    c.slots = 1;
    c.queue_capacity = 4;
    c.admission_load_threshold = 0.5;
    return c;
  }
  if (profile == "edge") {
    // Edge-compute BS: more slots and queue depth, later pushback.
    c.slots = 4;
    c.queue_capacity = 16;
    c.admission_load_threshold = 0.75;
    return c;
  }
  throw std::runtime_error("unknown bs.profile '" + profile +
                           "' (expected macro | small_cell | edge)");
}

}  // namespace

std::string layout_name(Layout l) {
  switch (l) {
    case Layout::kRailLinear: return "rail_linear";
    case Layout::kUrbanCanyon: return "urban_canyon";
    case Layout::kDenseSmallCell: return "dense_small_cell";
  }
  throw std::invalid_argument("layout_name: value outside the Layout enum");
}

Layout layout_from_name(const std::string& name) {
  if (name == "rail_linear") return Layout::kRailLinear;
  if (name == "urban_canyon") return Layout::kUrbanCanyon;
  if (name == "dense_small_cell") return Layout::kDenseSmallCell;
  throw std::runtime_error("unknown layout '" + name +
                           "' (expected rail_linear | urban_canyon | "
                           "dense_small_cell)");
}

std::string route_wire_name(trace::Route r) {
  switch (r) {
    case trace::Route::kLowMobilityLA: return "la";
    case trace::Route::kBeijingTaiyuan: return "beijing_taiyuan";
    case trace::Route::kBeijingShanghai: return "beijing_shanghai";
  }
  throw std::invalid_argument(
      "route_wire_name: value outside the Route enum");
}

trace::Route route_from_wire_name(const std::string& name) {
  if (name == "la") return trace::Route::kLowMobilityLA;
  if (name == "beijing_taiyuan") return trace::Route::kBeijingTaiyuan;
  if (name == "beijing_shanghai") return trace::Route::kBeijingShanghai;
  throw std::runtime_error("unknown route '" + name +
                           "' (expected la | beijing_taiyuan | "
                           "beijing_shanghai)");
}

// ---------------------------------------------------------------------------
// parser

ScenarioSpec read_scenario_json(std::istream& is) {
  // Phase 1: the shared flat-JSON line discipline collects the pairs;
  // duplicates and structural noise are rejected there with the line
  // number and content.
  std::map<std::string, std::string> kv;
  for (auto& e : fj::read(is, "scenario"))
    kv.emplace(std::move(e.key), std::move(e.value));

  // Phase 2: interpret the keys in fixed order (file order is irrelevant;
  // e.g. bs.profile always applies before bs.* overrides). Every consumed
  // key is erased; whatever is left at the end is unknown and rejected.
  const auto take = [&](const std::string& key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto parse_double = [&](const std::string& key,
                                const std::string& s) {
    const double v = parse_key(key, s, fj::parse_double);
    if (!std::isfinite(v)) bad(key, "non-finite number '" + s + "'");
    return v;
  };
  const auto parse_int = [&](const std::string& key, const std::string& s) {
    return parse_key(key, s, fj::parse_int);
  };
  const auto parse_bool = [&](const std::string& key, const std::string& s) {
    if (s == "true") return true;
    if (s == "false") return false;
    bad(key, "expected 'true' or 'false', got '" + s + "'");
  };
  const auto take_double = [&](const std::string& key, double& out) {
    if (const auto v = take(key)) out = parse_double(key, *v);
  };
  const auto take_int = [&](const std::string& key, int& out) {
    if (const auto v = take(key)) out = parse_int(key, *v);
  };
  const auto take_bool = [&](const std::string& key, bool& out) {
    if (const auto v = take(key)) out = parse_bool(key, *v);
  };

  const auto schema = take("schema");
  if (!schema) throw std::runtime_error("scenario JSON: missing 'schema' key");
  if (*schema != kSchemaName)
    throw std::runtime_error("scenario JSON: schema '" + *schema +
                             "' is not '" + kSchemaName + "'");

  ScenarioSpec spec;
  if (const auto v = take("name")) spec.name = *v;
  else throw std::runtime_error("scenario JSON: missing 'name' key");
  if (const auto v = take("description")) spec.description = *v;
  else throw std::runtime_error("scenario JSON: missing 'description' key");
  if (const auto v = take("paper_ref")) spec.paper_ref = *v;
  try {
    if (const auto v = take("route")) spec.route = route_from_wire_name(*v);
    if (const auto v = take("layout")) spec.layout = layout_from_name(*v);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("scenario JSON: ") + e.what());
  }
  take_double("speed_kmh", spec.speed_kmh);
  take_double("duration_s", spec.duration_s);
  take_double("time_compression", spec.time_compression);
  if (const auto v = take("seed"))
    spec.seed = parse_key("seed", *v, fj::parse_u64);

  // --- UE population: plain band, named-class shorthands, or generic
  // indexed classes; the forms are mutually exclusive beyond the plain
  // defaults (a file mixing them is contradictory, not mergeable).
  const auto ue_count = take("ue.count");
  take_double("ue.start_spread_m", spec.start_spread_m);
  const auto band_lo = take("ue.speed_lo_kmh");
  const auto band_hi = take("ue.speed_hi_kmh");
  bool any_shorthand = false;
  for (const auto& nc : kNamedClasses) {
    if (const auto v = take(nc.key)) {
      any_shorthand = true;
      const int count = parse_int(nc.key, *v);
      if (count < 0) bad(nc.key, "class count must be >= 0");
      if (count == 0) continue;
      sim::FleetSpeedClass c;
      c.name = nc.name;
      c.count = count;
      c.speed_lo_kmh = nc.lo_kmh;
      c.speed_hi_kmh = nc.hi_kmh;
      spec.classes.push_back(std::move(c));
    }
  }
  bool any_indexed = false;
  for (int i = 0;; ++i) {
    const std::string p = "ue.class." + std::to_string(i) + ".";
    const auto cname = take(p + "name");
    const auto ccount = take(p + "count");
    const auto clo = take(p + "speed_lo_kmh");
    const auto chi = take(p + "speed_hi_kmh");
    if (!cname && !ccount && !clo && !chi) break;
    if (!cname || !ccount || !clo || !chi)
      bad(p + "*", "a ue.class entry needs all of name/count/"
                   "speed_lo_kmh/speed_hi_kmh");
    any_indexed = true;
    sim::FleetSpeedClass c;
    c.name = *cname;
    c.count = parse_int(p + "count", *ccount);
    c.speed_lo_kmh = parse_double(p + "speed_lo_kmh", *clo);
    c.speed_hi_kmh = parse_double(p + "speed_hi_kmh", *chi);
    spec.classes.push_back(std::move(c));
  }
  if (any_shorthand && any_indexed)
    throw std::runtime_error(
        "scenario JSON: contradictory UE population — both named class "
        "shorthands (ue.pedestrian/...) and indexed ue.class.<i> entries");
  if (!spec.classes.empty() && (band_lo || band_hi))
    throw std::runtime_error(
        "scenario JSON: contradictory UE population — both a plain speed "
        "band (ue.speed_lo_kmh/ue.speed_hi_kmh) and speed classes");
  if (band_lo) spec.ue_speed_lo_kmh = parse_double("ue.speed_lo_kmh", *band_lo);
  if (band_hi) spec.ue_speed_hi_kmh = parse_double("ue.speed_hi_kmh", *band_hi);
  if (!spec.classes.empty()) {
    int sum = 0;
    for (const auto& c : spec.classes) sum += c.count;
    if (ue_count) {
      spec.ue_count = parse_int("ue.count", *ue_count);
      if (spec.ue_count != sum)
        throw std::runtime_error(
            "scenario JSON: ue.count " + std::to_string(spec.ue_count) +
            " contradicts the class counts (sum " + std::to_string(sum) + ")");
    } else {
      spec.ue_count = sum;
    }
  } else if (ue_count) {
    spec.ue_count = parse_int("ue.count", *ue_count);
  }

  // --- scripted fault windows: contiguous indices, all four keys each.
  for (int i = 0;; ++i) {
    const std::string p = "fault." + std::to_string(i) + ".";
    const auto kind = take(p + "kind");
    const auto start = take(p + "start_s");
    const auto dur = take(p + "duration_s");
    const auto mag = take(p + "magnitude");
    if (!kind && !start && !dur && !mag) break;
    if (!kind || !start || !dur || !mag)
      bad(p + "*",
          "a fault window needs all of kind/start_s/duration_s/magnitude");
    sim::FaultWindow w;
    try {
      w.kind = sim::fault_kind_from_name(*kind);
    } catch (const std::invalid_argument& e) {
      bad(p + "kind", e.what());
    }
    w.start_s = parse_double(p + "start_s", *start);
    w.duration_s = parse_double(p + "duration_s", *dur);
    w.magnitude = parse_double(p + "magnitude", *mag);
    spec.faults.push_back(w);
  }

  // --- random fault specs: same shape, six keys each.
  for (int i = 0;; ++i) {
    const std::string p = "rfault." + std::to_string(i) + ".";
    const auto kind = take(p + "kind");
    const auto gap = take(p + "mean_gap_s");
    const auto dlo = take(p + "duration_lo_s");
    const auto dhi = take(p + "duration_hi_s");
    const auto mlo = take(p + "magnitude_lo");
    const auto mhi = take(p + "magnitude_hi");
    if (!kind && !gap && !dlo && !dhi && !mlo && !mhi) break;
    if (!kind || !gap || !dlo || !dhi || !mlo || !mhi)
      bad(p + "*",
          "a random fault spec needs all of kind/mean_gap_s/duration_lo_s/"
          "duration_hi_s/magnitude_lo/magnitude_hi");
    sim::RandomFaultSpec r;
    try {
      r.kind = sim::fault_kind_from_name(*kind);
    } catch (const std::invalid_argument& e) {
      bad(p + "kind", e.what());
    }
    r.mean_gap_s = parse_double(p + "mean_gap_s", *gap);
    r.duration_lo_s = parse_double(p + "duration_lo_s", *dlo);
    r.duration_hi_s = parse_double(p + "duration_hi_s", *dhi);
    r.magnitude_lo = parse_double(p + "magnitude_lo", *mlo);
    r.magnitude_hi = parse_double(p + "magnitude_hi", *mhi);
    spec.rfaults.push_back(r);
  }

  // --- correlated-fault domain + cascade-resilience knobs.
  take_int("fault.domain_size", spec.fault_domain_size);
  take_double("fault.region_stagger_s", spec.region_stagger_s);
  take_int("fault.cascade_neighbor_radius", spec.cascade_neighbor_radius);
  take_double("resilience.load_ad_staleness_s", spec.load_ad_staleness_s);
  take_int("resilience.breaker_trip_k", spec.breaker_trip_k);
  take_double("resilience.breaker_cooldown_s", spec.breaker_cooldown_s);
  take_double("resilience.storm_jitter_frac", spec.storm_jitter_frac);

  // --- backhaul transport overrides.
  take_bool("backhaul.enabled", spec.backhaul.enabled);
  take_double("backhaul.base_latency_s", spec.backhaul.base_latency_s);
  take_double("backhaul.jitter_s", spec.backhaul.jitter_s);
  take_double("backhaul.loss_prob", spec.backhaul.loss_prob);
  take_double("backhaul.reorder_prob", spec.backhaul.reorder_prob);
  take_double("backhaul.reorder_extra_s", spec.backhaul.reorder_extra_s);
  take_double("backhaul.duplicate_prob", spec.backhaul.duplicate_prob);
  if (const auto v = take("backhaul.queue_capacity")) {
    const int q = parse_int("backhaul.queue_capacity", *v);
    if (q < 1) bad("backhaul.queue_capacity", "must be >= 1");
    spec.backhaul.queue_capacity = static_cast<std::size_t>(q);
  }
  take_double("backhaul.reverse_latency_scale",
              spec.backhaul.reverse_latency_scale);

  // --- BS capacity: profile preset first, field overrides on top.
  if (const auto v = take("bs.profile")) spec.bs_profile = *v;
  try {
    spec.bs_capacity = bs_profile_preset(spec.bs_profile);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("scenario JSON: ") + e.what());
  }
  take_bool("bs.enabled", spec.bs_capacity.enabled);
  take_int("bs.slots", spec.bs_capacity.slots);
  if (const auto v = take("bs.queue_capacity")) {
    const int q = parse_int("bs.queue_capacity", *v);
    if (q < 0) bad("bs.queue_capacity", "must be >= 0");
    spec.bs_capacity.queue_capacity = static_cast<std::size_t>(q);
  }
  take_double("bs.prep_service_s", spec.bs_capacity.prep_service_s);
  take_double("bs.ctx_service_s", spec.bs_capacity.ctx_service_s);
  take_double("bs.background_service_s",
              spec.bs_capacity.background_service_s);
  take_double("bs.admission_load_threshold",
              spec.bs_capacity.admission_load_threshold);
  take_double("bs.reject_backoff_hint_s",
              spec.bs_capacity.reject_backoff_hint_s);
  take_int("bs.admission_max_retries",
           spec.bs_capacity.admission_max_retries);

  // --- gates.
  take_double("gate.max_rem_failure_ratio",
              spec.gates.max_rem_failure_ratio);
  take_bool("gate.rem_le_legacy", spec.gates.rem_le_legacy);
  take_int("gate.min_legacy_handovers", spec.gates.min_legacy_handovers);

  if (!kv.empty()) {
    std::string keys;
    for (const auto& [k, _] : kv) {
      if (!keys.empty()) keys += ", ";
      keys += "'" + k + "'";
    }
    throw std::runtime_error("scenario JSON: unknown key(s) " + keys);
  }
  return spec;
}

ScenarioSpec read_scenario_json_file(const std::string& path) {
  return common::flat_json::read_file("read_scenario_json_file", path,
                                      read_scenario_json);
}

// ---------------------------------------------------------------------------
// canonical writer

void write_scenario_json(const ScenarioSpec& spec, std::ostream& os) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&](const std::string& k, const std::string& v) {
    out.emplace_back(k, v);
  };
  add("schema", kSchemaName);
  add("name", spec.name);
  add("description", spec.description);
  add("paper_ref", spec.paper_ref);
  add("route", route_wire_name(spec.route));
  add("layout", layout_name(spec.layout));
  add("speed_kmh", format_double(spec.speed_kmh));
  add("duration_s", format_double(spec.duration_s));
  add("time_compression", format_double(spec.time_compression));
  add("seed", std::to_string(spec.seed));
  add("ue.count", std::to_string(spec.ue_count));
  add("ue.start_spread_m", format_double(spec.start_spread_m));
  if (spec.classes.empty()) {
    add("ue.speed_lo_kmh", format_double(spec.ue_speed_lo_kmh));
    add("ue.speed_hi_kmh", format_double(spec.ue_speed_hi_kmh));
  } else {
    for (std::size_t i = 0; i < spec.classes.size(); ++i) {
      const auto& c = spec.classes[i];
      const std::string p = "ue.class." + std::to_string(i) + ".";
      add(p + "name", c.name);
      add(p + "count", std::to_string(c.count));
      add(p + "speed_lo_kmh", format_double(c.speed_lo_kmh));
      add(p + "speed_hi_kmh", format_double(c.speed_hi_kmh));
    }
  }
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    const auto& w = spec.faults[i];
    const std::string p = "fault." + std::to_string(i) + ".";
    add(p + "kind", sim::fault_kind_name(w.kind));
    add(p + "start_s", format_double(w.start_s));
    add(p + "duration_s", format_double(w.duration_s));
    add(p + "magnitude", format_double(w.magnitude));
  }
  for (std::size_t i = 0; i < spec.rfaults.size(); ++i) {
    const auto& r = spec.rfaults[i];
    const std::string p = "rfault." + std::to_string(i) + ".";
    add(p + "kind", sim::fault_kind_name(r.kind));
    add(p + "mean_gap_s", format_double(r.mean_gap_s));
    add(p + "duration_lo_s", format_double(r.duration_lo_s));
    add(p + "duration_hi_s", format_double(r.duration_hi_s));
    add(p + "magnitude_lo", format_double(r.magnitude_lo));
    add(p + "magnitude_hi", format_double(r.magnitude_hi));
  }
  // Domain / resilience knobs are emitted only off their defaults so
  // pre-existing scenarios re-canonicalize byte-identically.
  const ScenarioSpec def;
  if (spec.fault_domain_size != def.fault_domain_size)
    add("fault.domain_size", std::to_string(spec.fault_domain_size));
  if (spec.region_stagger_s != def.region_stagger_s)
    add("fault.region_stagger_s", format_double(spec.region_stagger_s));
  if (spec.cascade_neighbor_radius != def.cascade_neighbor_radius)
    add("fault.cascade_neighbor_radius",
        std::to_string(spec.cascade_neighbor_radius));
  if (spec.load_ad_staleness_s != def.load_ad_staleness_s)
    add("resilience.load_ad_staleness_s",
        format_double(spec.load_ad_staleness_s));
  if (spec.breaker_trip_k != def.breaker_trip_k)
    add("resilience.breaker_trip_k", std::to_string(spec.breaker_trip_k));
  if (spec.breaker_cooldown_s != def.breaker_cooldown_s)
    add("resilience.breaker_cooldown_s",
        format_double(spec.breaker_cooldown_s));
  if (spec.storm_jitter_frac != def.storm_jitter_frac)
    add("resilience.storm_jitter_frac", format_double(spec.storm_jitter_frac));
  add("backhaul.enabled", fmt_bool(spec.backhaul.enabled));
  add("backhaul.base_latency_s", format_double(spec.backhaul.base_latency_s));
  add("backhaul.jitter_s", format_double(spec.backhaul.jitter_s));
  add("backhaul.loss_prob", format_double(spec.backhaul.loss_prob));
  add("backhaul.reorder_prob", format_double(spec.backhaul.reorder_prob));
  add("backhaul.reorder_extra_s", format_double(spec.backhaul.reorder_extra_s));
  add("backhaul.duplicate_prob", format_double(spec.backhaul.duplicate_prob));
  add("backhaul.queue_capacity",
      std::to_string(spec.backhaul.queue_capacity));
  add("backhaul.reverse_latency_scale",
      format_double(spec.backhaul.reverse_latency_scale));
  add("bs.profile", spec.bs_profile);
  add("bs.enabled", fmt_bool(spec.bs_capacity.enabled));
  add("bs.slots", std::to_string(spec.bs_capacity.slots));
  add("bs.queue_capacity", std::to_string(spec.bs_capacity.queue_capacity));
  add("bs.prep_service_s", format_double(spec.bs_capacity.prep_service_s));
  add("bs.ctx_service_s", format_double(spec.bs_capacity.ctx_service_s));
  add("bs.background_service_s",
      format_double(spec.bs_capacity.background_service_s));
  add("bs.admission_load_threshold",
      format_double(spec.bs_capacity.admission_load_threshold));
  add("bs.reject_backoff_hint_s",
      format_double(spec.bs_capacity.reject_backoff_hint_s));
  add("bs.admission_max_retries",
      std::to_string(spec.bs_capacity.admission_max_retries));
  add("gate.max_rem_failure_ratio",
      format_double(spec.gates.max_rem_failure_ratio));
  add("gate.rem_le_legacy", fmt_bool(spec.gates.rem_le_legacy));
  add("gate.min_legacy_handovers",
      std::to_string(spec.gates.min_legacy_handovers));

  fj::write(os, out);
}

std::string write_scenario_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  write_scenario_json(spec, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// compiler

namespace {

/// Deployment-geometry families on top of the route preset. rail_linear
/// leaves make_scenario's corridor untouched; the other two reshape the
/// grid and propagation to the family SCENARIOS.md documents.
void apply_layout(trace::Scenario& s, Layout l) {
  auto& d = s.deployment;
  auto& p = s.propagation;
  switch (l) {
    case Layout::kRailLinear:
      break;
    case Layout::kUrbanCanyon:
      // Street-canyon macro grid: sites every few blocks, close to the
      // road, heavy building shadowing with short decorrelation, frequent
      // short canyon blockages standing in for intersections and trucks.
      d.site_spacing_mean_m = std::min(d.site_spacing_mean_m, 600.0);
      d.site_spacing_jitter_m = 0.25 * d.site_spacing_mean_m;
      d.site_offset_min_m = 20.0;
      d.site_offset_max_m = 120.0;
      d.colocated_second_cell_prob = 0.6;
      d.primary_missing_prob = 0.12;
      d.holes_per_km = 0.05;
      d.hole_len_min_m = 40.0;
      d.hole_len_max_m = 150.0;
      d.tx_power_dbm = 40.0;
      p.pathloss_exponent = 3.8;
      p.shadowing_sigma_db = 6.0;
      p.shadowing_decorr_m = 40.0;
      p.fading_sigma_db = 2.5;
      break;
    case Layout::kDenseSmallCell:
      // Low-power small cells a couple hundred metres apart, almost all
      // co-sited with a second carrier; clean below-rooftop propagation,
      // no blanket holes (outages come from capacity, not coverage).
      d.site_spacing_mean_m = std::min(d.site_spacing_mean_m, 220.0);
      d.site_spacing_jitter_m = 50.0;
      d.site_offset_min_m = 10.0;
      d.site_offset_max_m = 60.0;
      d.colocated_second_cell_prob = 0.9;
      d.primary_missing_prob = 0.02;
      d.holes_per_km = 0.0;
      d.tx_power_dbm = 30.0;
      d.secondary_bandwidths_hz = {10e6, 20e6};
      p.pathloss_exponent = 3.2;
      p.shadowing_sigma_db = 4.0;
      p.shadowing_decorr_m = 60.0;
      break;
  }
}

}  // namespace

CompiledScenario compile(const ScenarioSpec& spec,
                         const CompileOverrides& overrides) {
  const std::string ctx = "scenario '" + spec.name + "': ";
  const auto reject = [&](const std::string& why) -> void {
    throw std::invalid_argument(ctx + why);
  };

  if (spec.name.empty()) reject("name must be non-empty");
  for (char c : spec.name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'))
      reject("name must match [a-z0-9_]+ (got '" + spec.name + "')");
  if (spec.description.empty()) reject("description must be non-empty");

  const double tc =
      spec.time_compression * overrides.extra_time_compression.value_or(1.0);
  if (!(tc > 0.0)) reject("time_compression must be > 0");
  const double duration_raw = overrides.duration_s.value_or(spec.duration_s);
  if (!(duration_raw > 0.0)) reject("duration_s must be > 0");
  const double duration_s = duration_raw / tc;

  const auto check_speed = [&](const std::string& what, double v) {
    if (!(v > 0.0 && v <= kMaxSpeedKmh))
      reject(what + " " + format_double(v) + " km/h outside (0, " +
             format_double(kMaxSpeedKmh) + "]");
  };
  check_speed("speed_kmh", spec.speed_kmh);

  int ue_count = spec.ue_count;
  if (overrides.ue_count) {
    if (!spec.classes.empty())
      reject("a ue_count override is not valid for a class-mix population "
             "(the classes pin their own counts)");
    ue_count = *overrides.ue_count;
  }
  if (ue_count < 1) reject("ue.count must be >= 1");
  if (!(spec.start_spread_m >= 0.0)) reject("ue.start_spread_m must be >= 0");

  double max_speed_kmh = spec.speed_kmh;
  if (spec.classes.empty()) {
    check_speed("ue.speed_lo_kmh", spec.ue_speed_lo_kmh);
    check_speed("ue.speed_hi_kmh", spec.ue_speed_hi_kmh);
    if (!(spec.ue_speed_lo_kmh <= spec.ue_speed_hi_kmh))
      reject("ue.speed_lo_kmh must be <= ue.speed_hi_kmh");
    if (ue_count > 1)
      max_speed_kmh = std::max(max_speed_kmh, spec.ue_speed_hi_kmh);
  } else {
    int sum = 0;
    for (const auto& c : spec.classes) {
      const std::string what = "class '" + c.name + "'";
      if (c.count < 0) reject(what + " count must be >= 0");
      check_speed(what + " speed_lo_kmh", c.speed_lo_kmh);
      check_speed(what + " speed_hi_kmh", c.speed_hi_kmh);
      if (!(c.speed_lo_kmh <= c.speed_hi_kmh))
        reject(what + " speed_lo_kmh must be <= speed_hi_kmh");
      sum += c.count;
      max_speed_kmh = std::max(max_speed_kmh, c.speed_hi_kmh);
    }
    if (sum != ue_count)
      reject("class counts sum to " + std::to_string(sum) +
             " but ue.count is " + std::to_string(ue_count));
  }

  CompiledScenario out;
  out.name = spec.name;
  out.description = spec.description;
  out.paper_ref = spec.paper_ref;
  out.seed = spec.seed;
  out.gates = spec.gates;
  if (!(out.gates.max_rem_failure_ratio >= 0.0 &&
        out.gates.max_rem_failure_ratio <= 1.0))
    reject("gate.max_rem_failure_ratio must be in [0, 1]");
  if (out.gates.min_legacy_handovers < 0)
    reject("gate.min_legacy_handovers must be >= 0");

  out.scenario = trace::make_scenario(spec.route, spec.speed_kmh, duration_s);
  apply_layout(out.scenario, spec.layout);

  auto& sc = out.scenario.sim;
  sc.fleet_size = ue_count;
  sc.fleet.speed_min_kmh = spec.ue_speed_lo_kmh;
  sc.fleet.speed_max_kmh = spec.ue_speed_hi_kmh;
  sc.fleet.start_spread_m = spec.start_spread_m;
  sc.fleet.classes = spec.classes;

  // The corridor must outlast the fastest UE for the whole (compressed)
  // horizon plus the start spread — recomputed after layout shaping since
  // the terminal padding is two (possibly reshaped) site spacings.
  out.scenario.deployment.route_len_m =
      common::kmh_to_mps(max_speed_kmh) * duration_s + spec.start_spread_m +
      2.0 * out.scenario.deployment.site_spacing_mean_m;

  // Fault timeline: scripted windows and random-spec arrival/duration
  // parameters live on the *uncompressed* timeline and are divided by the
  // compression factor here. Magnitudes are never scaled — they are
  // protocol-level quantities (loss probabilities, extra latencies), not
  // timeline positions.
  for (auto w : spec.faults) {
    w.start_s /= tc;
    w.duration_s /= tc;
    sc.faults.windows.push_back(w);
  }
  for (auto r : spec.rfaults) {
    r.mean_gap_s /= tc;
    r.duration_lo_s /= tc;
    r.duration_hi_s /= tc;
    sc.faults.random.push_back(r);
  }
  // Correlated-fault domain knobs: the onset stagger is a timeline
  // position, so it compresses with the windows; domain size and the
  // cascade radius are topology, never scaled.
  if (spec.fault_domain_size < 1) reject("fault.domain_size must be >= 1");
  if (!(spec.region_stagger_s >= 0.0))
    reject("fault.region_stagger_s must be >= 0");
  if (spec.cascade_neighbor_radius < 0)
    reject("fault.cascade_neighbor_radius must be >= 0");
  sc.faults.domain_size = spec.fault_domain_size;
  sc.faults.region_stagger_s = spec.region_stagger_s / tc;
  sc.faults.cascade_neighbor_radius = spec.cascade_neighbor_radius;
  if (!sc.faults.empty()) {
    // Reuse FaultInjector's reject-with-context validation (overlap,
    // bad magnitudes, ...) at compile time, with the scenario named. The
    // throwaway injector draws from a fixed RNG and is discarded.
    try {
      sim::FaultInjector probe(sc.faults, duration_s, common::Rng(0));
    } catch (const std::invalid_argument& e) {
      reject(e.what());
    }
  }

  sc.backhaul = spec.backhaul;
  if (sc.backhaul.enabled) {
    try {
      net::BackhaulNetwork probe(sc.backhaul, common::Rng(0));
    } catch (const std::invalid_argument& e) {
      reject(e.what());
    }
  }

  sc.bs_capacity = spec.bs_capacity;
  if (sc.bs_capacity.enabled) {
    try {
      sim::validate(sc.bs_capacity);
    } catch (const std::invalid_argument& e) {
      reject(e.what());
    }
  }

  // Cascade-resilience knobs. The staleness bound is an advertisement
  // shelf life, not a timeline position — protocol-level, never scaled
  // (like fault magnitudes); same for the breaker cool-down.
  if (!(spec.load_ad_staleness_s >= 0.0))
    reject("resilience.load_ad_staleness_s must be >= 0");
  if (spec.breaker_trip_k < 0)
    reject("resilience.breaker_trip_k must be >= 0");
  if (spec.breaker_trip_k > 0 && !(spec.breaker_cooldown_s > 0.0))
    reject("resilience.breaker_cooldown_s must be > 0 when breakers are "
           "enabled");
  if (!(spec.storm_jitter_frac >= 0.0))
    reject("resilience.storm_jitter_frac must be >= 0");
  sc.load_ad_staleness_s = spec.load_ad_staleness_s;
  sc.breaker_trip_k = spec.breaker_trip_k;
  sc.breaker_cooldown_s = spec.breaker_cooldown_s;
  sc.storm_jitter_frac = spec.storm_jitter_frac;
  return out;
}

// ---------------------------------------------------------------------------
// digest

std::vector<std::pair<std::string, std::string>> digest_fields(
    const CompiledScenario& c) {
  std::vector<std::pair<std::string, std::string>> f;
  const auto add = [&](const std::string& k, const std::string& v) {
    f.emplace_back(k, v);
  };
  const auto add_d = [&](const std::string& k, double v) {
    add(k, format_double(v));
  };
  const auto add_i = [&](const std::string& k, long long v) {
    add(k, std::to_string(v));
  };
  add("name", c.name);
  add("seed", std::to_string(c.seed));
  add("route", route_wire_name(c.scenario.route));
  add_d("speed_kmh", c.scenario.speed_kmh);

  const auto& d = c.scenario.deployment;
  add_d("deploy.route_len_m", d.route_len_m);
  add_d("deploy.site_spacing_mean_m", d.site_spacing_mean_m);
  add_d("deploy.site_spacing_jitter_m", d.site_spacing_jitter_m);
  add_d("deploy.site_offset_min_m", d.site_offset_min_m);
  add_d("deploy.site_offset_max_m", d.site_offset_max_m);
  add_d("deploy.colocated_second_cell_prob", d.colocated_second_cell_prob);
  add_d("deploy.primary_missing_prob", d.primary_missing_prob);
  for (std::size_t i = 0; i < d.channels.size(); ++i) {
    const std::string p = "deploy.channel." + std::to_string(i);
    add_i(p + ".id", d.channels[i].first);
    add_d(p + ".carrier_hz", d.channels[i].second);
  }
  for (std::size_t i = 0; i < d.secondary_bandwidths_hz.size(); ++i)
    add_d("deploy.secondary_bandwidth_hz." + std::to_string(i),
          d.secondary_bandwidths_hz[i]);
  add_d("deploy.holes_per_km", d.holes_per_km);
  add_d("deploy.hole_len_min_m", d.hole_len_min_m);
  add_d("deploy.hole_len_max_m", d.hole_len_max_m);
  add_d("deploy.tx_power_dbm", d.tx_power_dbm);

  const auto& p = c.scenario.propagation;
  add_d("prop.pathloss_exponent", p.pathloss_exponent);
  add_d("prop.shadowing_sigma_db", p.shadowing_sigma_db);
  add_d("prop.shadowing_decorr_m", p.shadowing_decorr_m);
  add_d("prop.per_cell_shadow_sigma_db", p.per_cell_shadow_sigma_db);
  add_d("prop.fading_sigma_db", p.fading_sigma_db);
  add_d("prop.dd_residual_sigma_db", p.dd_residual_sigma_db);

  const auto& m = c.scenario.policy_mix;
  add_d("mix.proactive_a3_prob", m.proactive_a3_prob);
  add_d("mix.load_balance_a4_prob", m.load_balance_a4_prob);
  add_d("mix.intra_ttt_s", m.intra_ttt_s);
  add_d("mix.inter_ttt_s", m.inter_ttt_s);

  const auto& s = c.scenario.sim;
  add_d("sim.speed_kmh", s.speed_kmh);
  add_d("sim.duration_s", s.duration_s);
  add_d("sim.tick_s", s.tick_s);
  add_d("sim.min_coverage_rsrp_dbm", s.min_coverage_rsrp_dbm);
  add_i("sim.fleet_size", s.fleet_size);
  add_d("fleet.speed_min_kmh", s.fleet.speed_min_kmh);
  add_d("fleet.speed_max_kmh", s.fleet.speed_max_kmh);
  add_d("fleet.start_spread_m", s.fleet.start_spread_m);
  for (std::size_t i = 0; i < s.fleet.classes.size(); ++i) {
    const auto& cls = s.fleet.classes[i];
    const std::string cp = "fleet.class." + std::to_string(i);
    add(cp + ".name", cls.name);
    add_i(cp + ".count", cls.count);
    add_d(cp + ".speed_lo_kmh", cls.speed_lo_kmh);
    add_d(cp + ".speed_hi_kmh", cls.speed_hi_kmh);
  }

  for (std::size_t i = 0; i < s.faults.windows.size(); ++i) {
    const auto& w = s.faults.windows[i];
    const std::string fp = "fault." + std::to_string(i);
    add(fp + ".kind", sim::fault_kind_name(w.kind));
    add_d(fp + ".start_s", w.start_s);
    add_d(fp + ".duration_s", w.duration_s);
    add_d(fp + ".magnitude", w.magnitude);
  }
  for (std::size_t i = 0; i < s.faults.random.size(); ++i) {
    const auto& r = s.faults.random[i];
    const std::string rp = "rfault." + std::to_string(i);
    add(rp + ".kind", sim::fault_kind_name(r.kind));
    add_d(rp + ".mean_gap_s", r.mean_gap_s);
    add_d(rp + ".duration_lo_s", r.duration_lo_s);
    add_d(rp + ".duration_hi_s", r.duration_hi_s);
    add_d(rp + ".magnitude_lo", r.magnitude_lo);
    add_d(rp + ".magnitude_hi", r.magnitude_hi);
  }

  // Domain knobs only matter to (and are only digested for) schedules
  // that fire a correlated fault; resilience knobs appear only off their
  // defaults. Pre-existing scen_* goldens stay byte-identical.
  {
    const auto uses_kind = [&](sim::FaultKind k) {
      for (const auto& w : s.faults.windows)
        if (w.kind == k) return true;
      for (const auto& r : s.faults.random)
        if (r.kind == k) return true;
      return false;
    };
    if (uses_kind(sim::FaultKind::kRegionOutage) ||
        uses_kind(sim::FaultKind::kCascadeOverload)) {
      add_i("fault.domain_size", s.faults.domain_size);
      add_d("fault.region_stagger_s", s.faults.region_stagger_s);
      add_i("fault.cascade_neighbor_radius",
            s.faults.cascade_neighbor_radius);
    }
  }
  const sim::SimConfig def;
  if (s.load_ad_staleness_s != def.load_ad_staleness_s)
    add_d("resilience.load_ad_staleness_s", s.load_ad_staleness_s);
  if (s.breaker_trip_k != def.breaker_trip_k) {
    add_i("resilience.breaker_trip_k", s.breaker_trip_k);
    add_d("resilience.breaker_cooldown_s", s.breaker_cooldown_s);
  }
  if (s.storm_jitter_frac != def.storm_jitter_frac)
    add_d("resilience.storm_jitter_frac", s.storm_jitter_frac);

  const auto& b = s.backhaul;
  add("backhaul.enabled", fmt_bool(b.enabled));
  add_d("backhaul.base_latency_s", b.base_latency_s);
  add_d("backhaul.jitter_s", b.jitter_s);
  add_d("backhaul.loss_prob", b.loss_prob);
  add_d("backhaul.reorder_prob", b.reorder_prob);
  add_d("backhaul.reorder_extra_s", b.reorder_extra_s);
  add_d("backhaul.duplicate_prob", b.duplicate_prob);
  add_i("backhaul.queue_capacity",
        static_cast<long long>(b.queue_capacity));
  add_d("backhaul.reverse_latency_scale", b.reverse_latency_scale);

  const auto& bs = s.bs_capacity;
  add("bs.enabled", fmt_bool(bs.enabled));
  add_i("bs.slots", bs.slots);
  add_i("bs.queue_capacity", static_cast<long long>(bs.queue_capacity));
  add_d("bs.prep_service_s", bs.prep_service_s);
  add_d("bs.ctx_service_s", bs.ctx_service_s);
  add_d("bs.background_service_s", bs.background_service_s);
  add_d("bs.admission_load_threshold", bs.admission_load_threshold);
  add_d("bs.reject_backoff_hint_s", bs.reject_backoff_hint_s);
  add_i("bs.admission_max_retries", bs.admission_max_retries);

  add_d("gate.max_rem_failure_ratio", c.gates.max_rem_failure_ratio);
  add("gate.rem_le_legacy", fmt_bool(c.gates.rem_le_legacy));
  add_i("gate.min_legacy_handovers", c.gates.min_legacy_handovers);
  return f;
}

// ---------------------------------------------------------------------------
// library access

std::vector<std::string> list_scenario_names(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec)
    throw std::runtime_error("list_scenario_names: cannot read directory " +
                             dir + ": " + ec.message());
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const fs::path p = entry.path();
    if (p.extension() != ".json") continue;
    names.push_back(p.stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

ScenarioSpec load_scenario(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name + ".json";
  ScenarioSpec spec = read_scenario_json_file(path);
  if (spec.name != name)
    throw std::runtime_error(path + ": name field '" + spec.name +
                             "' does not match the file basename '" + name +
                             "'");
  return spec;
}

}  // namespace rem::scenario
