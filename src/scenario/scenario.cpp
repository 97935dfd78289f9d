#include "scenario/scenario.hpp"

#include "common/flat_json.hpp"
#include "common/units.hpp"
#include "net/backhaul.hpp"
#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace rem::scenario {
namespace {

namespace fj = common::flat_json;

// ---------------------------------------------------------------------------
// field spellings, shared by the reader, the writer and digest_fields

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// Rejects the value of one key: "scenario JSON key '<key>': <why>".
[[noreturn]] void bad(std::string_view key, const std::string& why) {
  throw std::runtime_error("scenario JSON key '" + std::string(key) +
                           "': " + why);
}

/// A flat_json typed parse whose failure is reported against `key`.
template <typename Parse>
auto parse_key(std::string_view key, const std::string& s, Parse parse)
    -> decltype(parse(s)) {
  try {
    return parse(s);
  } catch (const std::invalid_argument& e) {
    bad(key, e.what());
  }
}

// One wire spelling per field type: format_value writes it (a bool only
// by exact type, so a C string never reads as one), parse_value reads it
// back into the field and rejects anything else against `key`.
std::string format_value(double v) { return fj::format_double(v); }
std::string format_value(int v) { return std::to_string(v); }
std::string format_value(std::size_t v) { return std::to_string(v); }
std::string format_value(std::same_as<bool> auto v) {
  return v ? "true" : "false";
}
std::string format_value(const std::string& v) { return v; }
std::string format_value(sim::FaultKind k) { return sim::fault_kind_name(k); }

void parse_value(std::string_view key, const std::string& s, double& out) {
  out = parse_key(key, s, fj::parse_double);
  if (!std::isfinite(out)) bad(key, "non-finite number '" + s + "'");
}
void parse_value(std::string_view key, const std::string& s, int& out) {
  out = parse_key(key, s, fj::parse_int);
}
/// A count: an int of at least `min`.
void parse_value(std::string_view key, const std::string& s,
                 std::size_t& out, int min) {
  const int v = parse_key(key, s, fj::parse_int);
  if (v < min) bad(key, "must be >= " + std::to_string(min));
  out = static_cast<std::size_t>(v);
}
void parse_value(std::string_view key, const std::string& s, bool& out) {
  if (s != "true" && s != "false")
    bad(key, "expected 'true' or 'false', got '" + s + "'");
  out = s == "true";
}
void parse_value(std::string_view, const std::string& s, std::string& out) {
  out = s;
}
void parse_value(std::string_view key, const std::string& s,
                 sim::FaultKind& out) {
  out = parse_key(key, s, sim::fault_kind_from_name);
}

// ---------------------------------------------------------------------------
// schema: one key list per record. Each calls f(key, &Record::member) once
// per key, in canonical order; the reader takes, the writer emits and
// digest_fields digests the keys in this order. A std::size_t entry adds
// the count's lower bound as a third argument.

constexpr const char* kSchemaName = "rem-scenario-v1";

constexpr auto for_each_backhaul_key = [](auto&& f) {
  using B = net::BackhaulConfig;
  f("backhaul.enabled", &B::enabled);
  f("backhaul.base_latency_s", &B::base_latency_s);
  f("backhaul.jitter_s", &B::jitter_s);
  f("backhaul.loss_prob", &B::loss_prob);
  f("backhaul.reorder_prob", &B::reorder_prob);
  f("backhaul.reorder_extra_s", &B::reorder_extra_s);
  f("backhaul.duplicate_prob", &B::duplicate_prob);
  f("backhaul.queue_capacity", &B::queue_capacity, 1);
  f("backhaul.reverse_latency_scale", &B::reverse_latency_scale);
};

/// The bs.* overrides, applied on top of the bs.profile preset.
constexpr auto for_each_bs_key = [](auto&& f) {
  using C = sim::BsCapacityConfig;
  f("bs.enabled", &C::enabled);
  f("bs.slots", &C::slots);
  f("bs.queue_capacity", &C::queue_capacity, 0);
  f("bs.prep_service_s", &C::prep_service_s);
  f("bs.ctx_service_s", &C::ctx_service_s);
  f("bs.background_service_s", &C::background_service_s);
  f("bs.admission_load_threshold", &C::admission_load_threshold);
  f("bs.reject_backoff_hint_s", &C::reject_backoff_hint_s);
  f("bs.admission_max_retries", &C::admission_max_retries);
};

constexpr auto for_each_gate_key = [](auto&& f) {
  using G = ScenarioGates;
  f("gate.max_rem_failure_ratio", &G::max_rem_failure_ratio);
  f("gate.rem_le_legacy", &G::rem_le_legacy);
  f("gate.min_legacy_handovers", &G::min_legacy_handovers);
};

/// The correlated-fault domain and cascade-resilience knobs. The writer
/// emits each only off its default; digest_fields keeps its own rules for
/// them, because it digests the compiled SimConfig, not the spec.
constexpr auto for_each_knob_key = [](auto&& f) {
  using S = ScenarioSpec;
  f("fault.domain_size", &S::fault_domain_size);
  f("fault.region_stagger_s", &S::region_stagger_s);
  f("fault.cascade_neighbor_radius", &S::cascade_neighbor_radius);
  f("resilience.load_ad_staleness_s", &S::load_ad_staleness_s);
  f("resilience.breaker_trip_k", &S::breaker_trip_k);
  f("resilience.breaker_cooldown_s", &S::breaker_cooldown_s);
  f("resilience.storm_jitter_frac", &S::storm_jitter_frac);
};

// Indexed entries: each key is the suffix of "<prefix><i>.<key>".

constexpr auto for_each_class_key = [](auto&& f) {
  using C = sim::FleetSpeedClass;
  f("name", &C::name);
  f("count", &C::count);
  f("speed_lo_kmh", &C::speed_lo_kmh);
  f("speed_hi_kmh", &C::speed_hi_kmh);
};

constexpr auto for_each_window_key = [](auto&& f) {
  using W = sim::FaultWindow;
  f("kind", &W::kind);
  f("start_s", &W::start_s);
  f("duration_s", &W::duration_s);
  f("magnitude", &W::magnitude);
};

constexpr auto for_each_rfault_key = [](auto&& f) {
  using R = sim::RandomFaultSpec;
  f("kind", &R::kind);
  f("mean_gap_s", &R::mean_gap_s);
  f("duration_lo_s", &R::duration_lo_s);
  f("duration_hi_s", &R::duration_hi_s);
  f("magnitude_lo", &R::magnitude_lo);
  f("magnitude_hi", &R::magnitude_hi);
};

/// Appends one (prefix + key, value) pair per key of `keys`, from `rec`.
template <class Rec, class Keys>
void emit(Pairs& out, const Rec& rec, Keys keys,
          const std::string& prefix = "") {
  keys([&](const char* key, auto field, auto...) {
    out.emplace_back(prefix + key, format_value(rec.*field));
  });
}

/// Appends every entry of `list` under "<prefix><i>.<key>".
template <class T, class Keys>
void emit_entries(Pairs& out, const std::string& prefix,
                  const std::vector<T>& list, Keys keys) {
  for (std::size_t i = 0; i < list.size(); ++i)
    emit(out, list[i], keys, prefix + std::to_string(i) + ".");
}

/// Wire names of the route presets and layouts; `*_from_name` looks a
/// name up here the way sim::fault_kind_from_name does.
constexpr std::pair<trace::Route, const char*> kRouteNames[] = {
    {trace::Route::kLowMobilityLA, "la"},
    {trace::Route::kBeijingTaiyuan, "beijing_taiyuan"},
    {trace::Route::kBeijingShanghai, "beijing_shanghai"},
};
constexpr std::pair<Layout, const char*> kLayoutNames[] = {
    {Layout::kRailLinear, "rail_linear"},
    {Layout::kUrbanCanyon, "urban_canyon"},
    {Layout::kDenseSmallCell, "dense_small_cell"},
};

/// The wire name of `v`; throws std::invalid_argument(`outside`) for a
/// value outside the enum.
template <class Enum, std::size_t N>
std::string name_of(const std::pair<Enum, const char*> (&table)[N], Enum v,
                    const char* outside) {
  for (const auto& [e, name] : table)
    if (e == v) return name;
  throw std::invalid_argument(outside);
}

/// The value named `name`; rejects an unknown `what` listing every name.
template <class Enum, std::size_t N>
Enum value_named(const std::pair<Enum, const char*> (&table)[N],
                 const std::string& name, const char* what) {
  for (const auto& [e, n] : table)
    if (name == n) return e;
  std::string expected;
  for (const auto& [e, n] : table)
    expected += (expected.empty() ? "" : " | ") + std::string(n);
  throw std::runtime_error("unknown " + std::string(what) + " '" + name +
                           "' (expected " + expected + ")");
}

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
  return name_of(kLayoutNames, l,
                 "layout_name: value outside the Layout enum");
}

Layout layout_from_name(const std::string& name) {
  return value_named(kLayoutNames, name, "layout");
}

std::string route_wire_name(trace::Route r) {
  return name_of(kRouteNames, r,
                 "route_wire_name: value outside the Route enum");
}

trace::Route route_from_wire_name(const std::string& name) {
  return value_named(kRouteNames, name, "route");
}

// ---------------------------------------------------------------------------
// parser

ScenarioSpec read_scenario_json(std::istream& is) {
  // Phase 1: the shared flat-JSON line discipline collects the pairs;
  // duplicates and structural noise are rejected there with the line
  // number and content.
  std::map<std::string, std::string, std::less<>> kv;
  for (auto& e : fj::read(is, "scenario"))
    kv.emplace(std::move(e.key), std::move(e.value));

  // Phase 2: interpret the keys in fixed order (file order is irrelevant;
  // e.g. bs.profile always applies before bs.* overrides). Every consumed
  // key is erased; whatever is left at the end is unknown and rejected.
  const auto take = [&](std::string_view key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string v = std::move(it->second);
    kv.erase(it);
    return v;
  };
  const auto take_value = [&](const char* key, auto& out, auto... min) {
    if (const auto v = take(key)) parse_value(key, *v, out, min...);
  };
  const auto take_record = [&](auto& rec, auto keys) {
    keys([&](const char* key, auto field, auto... min) {
      take_value(key, rec.*field, min...);
    });
  };
  // Indexed entries "<prefix><i>.<key>", contiguous from index 0: the
  // first index with none of the keys ends the list, and one with only
  // some of them is rejected before any value is parsed. Returns the
  // number of entries read.
  std::string entry_key;
  const auto take_entries = [&](const char* prefix, const char* what,
                                auto& list, auto keys) {
    for (int i = 0;; ++i) {
      const std::string p = prefix + std::to_string(i) + ".";
      const auto at = [&](const char* k) -> const std::string& {
        return entry_key.assign(p).append(k);
      };
      int n = 0, found = 0;
      keys([&](const char* k, auto...) { ++n; found += kv.contains(at(k)); });
      if (found == 0) return i;
      if (found < n) {
        std::string all;
        keys([&](const char* k, auto...) { all += std::string("/") + k; });
        bad(p + "*", std::string("a ") + what + " needs all of " +
                         all.substr(1));
      }
      auto& entry = list.emplace_back();
      keys([&](const char* k, auto field, auto... min) {
        const std::string& name = at(k);
        parse_value(name, *take(name), entry.*field, min...);
      });
    }
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
  take_value("speed_kmh", spec.speed_kmh);
  take_value("duration_s", spec.duration_s);
  take_value("time_compression", spec.time_compression);
  if (const auto v = take("seed"))
    spec.seed = parse_key("seed", *v, fj::parse_u64);

  // --- UE population: plain band, named-class shorthands, or generic
  // indexed classes; the forms are mutually exclusive beyond the plain
  // defaults (a file mixing them is contradictory, not mergeable).
  const auto ue_count = take("ue.count");
  take_value("ue.start_spread_m", spec.start_spread_m);
  const auto band_lo = take("ue.speed_lo_kmh");
  const auto band_hi = take("ue.speed_hi_kmh");
  bool any_shorthand = false;
  for (const auto& nc : kNamedClasses) {
    if (const auto v = take(nc.key)) {
      any_shorthand = true;
      const int count = parse_key(nc.key, *v, fj::parse_int);
      if (count < 0) bad(nc.key, "class count must be >= 0");
      if (count > 0)
        spec.classes.push_back({nc.name, count, nc.lo_kmh, nc.hi_kmh});
    }
  }
  const bool any_indexed = take_entries("ue.class.", "ue.class entry",
                                        spec.classes, for_each_class_key) > 0;
  if (any_shorthand && any_indexed)
    throw std::runtime_error(
        "scenario JSON: contradictory UE population — both named class "
        "shorthands (ue.pedestrian/...) and indexed ue.class.<i> entries");
  if (!spec.classes.empty() && (band_lo || band_hi))
    throw std::runtime_error(
        "scenario JSON: contradictory UE population — both a plain speed "
        "band (ue.speed_lo_kmh/ue.speed_hi_kmh) and speed classes");
  if (band_lo) parse_value("ue.speed_lo_kmh", *band_lo, spec.ue_speed_lo_kmh);
  if (band_hi) parse_value("ue.speed_hi_kmh", *band_hi, spec.ue_speed_hi_kmh);
  if (ue_count) parse_value("ue.count", *ue_count, spec.ue_count);
  if (!spec.classes.empty()) {
    int sum = 0;
    for (const auto& c : spec.classes) sum += c.count;
    if (!ue_count) spec.ue_count = sum;
    if (spec.ue_count != sum)
      throw std::runtime_error(
          "scenario JSON: ue.count " + std::to_string(spec.ue_count) +
          " contradicts the class counts (sum " + std::to_string(sum) + ")");
  }

  // --- fault schedule, domain and resilience knobs.
  take_entries("fault.", "fault window", spec.faults, for_each_window_key);
  take_entries("rfault.", "random fault spec", spec.rfaults,
               for_each_rfault_key);
  take_record(spec, for_each_knob_key);

  take_record(spec.backhaul, for_each_backhaul_key);

  // --- BS capacity: profile preset first, field overrides on top.
  if (const auto v = take("bs.profile")) spec.bs_profile = *v;
  try {
    spec.bs_capacity = bs_profile_preset(spec.bs_profile);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("scenario JSON: ") + e.what());
  }
  take_record(spec.bs_capacity, for_each_bs_key);

  take_record(spec.gates, for_each_gate_key);

  if (!kv.empty()) {
    std::string keys;
    for (const auto& [k, _] : kv)
      keys += (keys.empty() ? "'" : ", '") + k + "'";
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
  Pairs out;
  const auto add = [&](const char* k, const auto& v) {
    out.emplace_back(k, format_value(v));
  };
  add("schema", kSchemaName);
  add("name", spec.name);
  add("description", spec.description);
  add("paper_ref", spec.paper_ref);
  add("route", route_wire_name(spec.route));
  add("layout", layout_name(spec.layout));
  add("speed_kmh", spec.speed_kmh);
  add("duration_s", spec.duration_s);
  add("time_compression", spec.time_compression);
  add("seed", std::to_string(spec.seed));
  add("ue.count", spec.ue_count);
  add("ue.start_spread_m", spec.start_spread_m);
  if (spec.classes.empty()) {
    add("ue.speed_lo_kmh", spec.ue_speed_lo_kmh);
    add("ue.speed_hi_kmh", spec.ue_speed_hi_kmh);
  }
  emit_entries(out, "ue.class.", spec.classes, for_each_class_key);
  emit_entries(out, "fault.", spec.faults, for_each_window_key);
  emit_entries(out, "rfault.", spec.rfaults, for_each_rfault_key);
  // Domain / resilience knobs are emitted only off their defaults so
  // pre-existing scenarios re-canonicalize byte-identically.
  const ScenarioSpec def;
  for_each_knob_key([&](const char* key, auto field) {
    if (spec.*field != def.*field) add(key, spec.*field);
  });
  emit(out, spec.backhaul, for_each_backhaul_key);
  add("bs.profile", spec.bs_profile);
  emit(out, spec.bs_capacity, for_each_bs_key);
  emit(out, spec.gates, for_each_gate_key);

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
      reject(what + " " + format_value(v) + " km/h outside (0, " +
             format_value(kMaxSpeedKmh) + "]");
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

  // Probe the transport even when it is off: the canonical writer emits
  // every backhaul key, and the reader bounds them whatever `enabled` is.
  sc.backhaul = spec.backhaul;
  try {
    net::BackhaulNetwork probe(sc.backhaul, common::Rng(0));
  } catch (const std::invalid_argument& e) {
    reject(e.what());
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
  Pairs f;
  const auto add = [&](const std::string& k, const auto& v) {
    f.emplace_back(k, format_value(v));
  };
  add("name", c.name);
  add("seed", std::to_string(c.seed));
  add("route", route_wire_name(c.scenario.route));
  add("speed_kmh", c.scenario.speed_kmh);

  const auto& d = c.scenario.deployment;
  add("deploy.route_len_m", d.route_len_m);
  add("deploy.site_spacing_mean_m", d.site_spacing_mean_m);
  add("deploy.site_spacing_jitter_m", d.site_spacing_jitter_m);
  add("deploy.site_offset_min_m", d.site_offset_min_m);
  add("deploy.site_offset_max_m", d.site_offset_max_m);
  add("deploy.colocated_second_cell_prob", d.colocated_second_cell_prob);
  add("deploy.primary_missing_prob", d.primary_missing_prob);
  for (std::size_t i = 0; i < d.channels.size(); ++i) {
    const std::string p = "deploy.channel." + std::to_string(i);
    add(p + ".id", d.channels[i].first);
    add(p + ".carrier_hz", d.channels[i].second);
  }
  for (std::size_t i = 0; i < d.secondary_bandwidths_hz.size(); ++i)
    add("deploy.secondary_bandwidth_hz." + std::to_string(i),
        d.secondary_bandwidths_hz[i]);
  add("deploy.holes_per_km", d.holes_per_km);
  add("deploy.hole_len_min_m", d.hole_len_min_m);
  add("deploy.hole_len_max_m", d.hole_len_max_m);
  add("deploy.tx_power_dbm", d.tx_power_dbm);

  const auto& p = c.scenario.propagation;
  add("prop.pathloss_exponent", p.pathloss_exponent);
  add("prop.shadowing_sigma_db", p.shadowing_sigma_db);
  add("prop.shadowing_decorr_m", p.shadowing_decorr_m);
  add("prop.per_cell_shadow_sigma_db", p.per_cell_shadow_sigma_db);
  add("prop.fading_sigma_db", p.fading_sigma_db);
  add("prop.dd_residual_sigma_db", p.dd_residual_sigma_db);

  const auto& m = c.scenario.policy_mix;
  add("mix.proactive_a3_prob", m.proactive_a3_prob);
  add("mix.load_balance_a4_prob", m.load_balance_a4_prob);
  add("mix.intra_ttt_s", m.intra_ttt_s);
  add("mix.inter_ttt_s", m.inter_ttt_s);

  const auto& s = c.scenario.sim;
  add("sim.speed_kmh", s.speed_kmh);
  add("sim.duration_s", s.duration_s);
  add("sim.fleet_size", s.fleet_size);
  add("fleet.speed_min_kmh", s.fleet.speed_min_kmh);
  add("fleet.speed_max_kmh", s.fleet.speed_max_kmh);
  add("fleet.start_spread_m", s.fleet.start_spread_m);
  emit_entries(f, "fleet.class.", s.fleet.classes, for_each_class_key);
  emit_entries(f, "fault.", s.faults.windows, for_each_window_key);
  emit_entries(f, "rfault.", s.faults.random, for_each_rfault_key);

  // The digest's own rules for the domain and resilience knobs, which the
  // scen_* goldens pin: domain knobs only for schedules that fire a
  // correlated fault, resilience knobs only off their defaults, and the
  // breaker cool-down only with breakers on.
  const auto uses_kind = [&](sim::FaultKind k) {
    const auto is_k = [&](const auto& f) { return f.kind == k; };
    return std::ranges::any_of(s.faults.windows, is_k) ||
           std::ranges::any_of(s.faults.random, is_k);
  };
  if (uses_kind(sim::FaultKind::kRegionOutage) ||
      uses_kind(sim::FaultKind::kCascadeOverload)) {
    add("fault.domain_size", s.faults.domain_size);
    add("fault.region_stagger_s", s.faults.region_stagger_s);
    add("fault.cascade_neighbor_radius", s.faults.cascade_neighbor_radius);
  }
  const sim::SimConfig def;
  if (s.load_ad_staleness_s != def.load_ad_staleness_s)
    add("resilience.load_ad_staleness_s", s.load_ad_staleness_s);
  if (s.breaker_trip_k != def.breaker_trip_k) {
    add("resilience.breaker_trip_k", s.breaker_trip_k);
    add("resilience.breaker_cooldown_s", s.breaker_cooldown_s);
  }
  if (s.storm_jitter_frac != def.storm_jitter_frac)
    add("resilience.storm_jitter_frac", s.storm_jitter_frac);

  emit(f, s.backhaul, for_each_backhaul_key);
  emit(f, s.bs_capacity, for_each_bs_key);
  emit(f, c.gates, for_each_gate_key);
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
