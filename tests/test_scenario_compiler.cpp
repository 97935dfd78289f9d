// Scenario compiler verification (label: tier1): the declarative JSON
// schema round-trips canonically, every key reaches its own field and is
// written in a pinned canonical form that SCENARIOS.md documents, every
// malformed input is rejected with the offending key/scenario named,
// compilation reproduces a hand-built SimConfig bit-for-bit, time
// compression scales the fault timeline but never magnitudes, and a
// compiled fleet run is bit-identical across worker-thread counts.
#include "scenario/scenario.hpp"

#include "common/flat_json.hpp"
#include "common/parallel.hpp"
#include "common/units.hpp"
#include "fleet_runner.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

namespace scn = rem::scenario;

/// Expect `fn` to throw `Ex` with `fragment` somewhere in the message —
/// the reject-with-context contract: errors name what went wrong.
template <typename Ex, typename Fn>
void expect_throw_with(const std::string& fragment, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected an exception mentioning '" << fragment << "'";
  } catch (const Ex& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

scn::ScenarioSpec parse(const std::string& json) {
  std::istringstream is(json);
  return scn::read_scenario_json(is);
}

/// Minimal valid scenario JSON with extra lines spliced in before the
/// closing brace.
std::string minimal_json(const std::string& extra = "") {
  return "{\n"
         "  \"schema\": \"rem-scenario-v1\",\n"
         "  \"name\": \"t\",\n"
         "  \"description\": \"test\",\n" +
         extra + "}\n";
}

/// A spec exercising every field group: mixed classes, scripted + random
/// faults, every domain/resilience knob off its default, asymmetric
/// backhaul, a non-default BS profile, custom gates.
scn::ScenarioSpec full_spec() {
  scn::ScenarioSpec s;
  s.name = "full";
  s.description = "every field group populated";
  s.paper_ref = "fig 9";
  s.route = rem::trace::Route::kBeijingTaiyuan;
  s.layout = scn::Layout::kUrbanCanyon;
  s.speed_kmh = 90.0;
  s.duration_s = 80.0;
  s.time_compression = 2.0;
  s.seed = 77;
  s.ue_count = 5;
  s.start_spread_m = 900.0;
  s.classes = {{"vehicular", 3, 40.0, 100.0}, {"pedestrian", 2, 3.0, 6.0}};
  rem::sim::FaultWindow w;
  w.kind = rem::sim::FaultKind::kBsOverload;
  w.start_s = 10.0;
  w.duration_s = 6.0;
  w.magnitude = 1.0;
  s.faults = {w};
  rem::sim::RandomFaultSpec r;
  r.kind = rem::sim::FaultKind::kPilotOutage;
  r.mean_gap_s = 30.0;
  r.duration_lo_s = 1.0;
  r.duration_hi_s = 2.0;
  r.magnitude_lo = 10.0;
  r.magnitude_hi = 20.0;
  s.rfaults = {r};
  s.fault_domain_size = 3;
  s.region_stagger_s = 0.25;
  s.cascade_neighbor_radius = 1;
  s.load_ad_staleness_s = 1.5;
  s.breaker_trip_k = 2;
  s.breaker_cooldown_s = 4.0;
  s.storm_jitter_frac = 0.2;
  s.backhaul.loss_prob = 0.03;
  s.backhaul.reverse_latency_scale = 2.0;
  s.bs_profile = "small_cell";
  s.bs_capacity = rem::sim::BsCapacityConfig{};
  s.bs_capacity.slots = 1;
  s.bs_capacity.queue_capacity = 4;
  s.bs_capacity.admission_load_threshold = 0.5;
  s.gates.max_rem_failure_ratio = 0.25;
  s.gates.rem_le_legacy = false;
  s.gates.min_legacy_handovers = 7;
  return s;
}

// --- schema round-trip ----------------------------------------------------

TEST(ScenarioSchema, WriteReadWriteIsCanonical) {
  const auto spec = full_spec();
  const std::string once = scn::write_scenario_json(spec);
  std::istringstream is(once);
  const auto back = scn::read_scenario_json(is);
  EXPECT_EQ(scn::write_scenario_json(back), once);
  // Spot-check the parsed fields, not just the re-emission.
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.route, spec.route);
  EXPECT_EQ(back.layout, spec.layout);
  EXPECT_EQ(back.seed, spec.seed);
  ASSERT_EQ(back.classes.size(), 2u);
  EXPECT_EQ(back.classes[0].name, "vehicular");
  EXPECT_EQ(back.classes[0].count, 3);
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].kind, rem::sim::FaultKind::kBsOverload);
  ASSERT_EQ(back.rfaults.size(), 1u);
  EXPECT_EQ(back.fault_domain_size, spec.fault_domain_size);
  EXPECT_EQ(back.region_stagger_s, spec.region_stagger_s);
  EXPECT_EQ(back.cascade_neighbor_radius, spec.cascade_neighbor_radius);
  EXPECT_EQ(back.load_ad_staleness_s, spec.load_ad_staleness_s);
  EXPECT_EQ(back.breaker_trip_k, spec.breaker_trip_k);
  EXPECT_EQ(back.breaker_cooldown_s, spec.breaker_cooldown_s);
  EXPECT_EQ(back.storm_jitter_frac, spec.storm_jitter_frac);
  EXPECT_EQ(back.backhaul.reverse_latency_scale, 2.0);
  EXPECT_EQ(back.bs_profile, "small_cell");
  EXPECT_EQ(back.gates.min_legacy_handovers, 7);

  // The seven domain/resilience keys are written only off their defaults.
  scn::ScenarioSpec plain;
  plain.name = "plain";
  plain.description = "every field at its default";
  const std::string json = scn::write_scenario_json(plain);
  for (const char* key :
       {"fault.domain_size", "fault.region_stagger_s",
        "fault.cascade_neighbor_radius", "resilience.load_ad_staleness_s",
        "resilience.breaker_trip_k", "resilience.breaker_cooldown_s",
        "resilience.storm_jitter_frac"}) {
    EXPECT_NE(once.find(key), std::string::npos) << key;
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioSchema, EveryLibraryScenarioRoundTrips) {
  const auto names = scn::list_scenario_names(REM_SCENARIO_DIR);
  EXPECT_GE(names.size(), 10u) << "library shrank below the shipped set";
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto spec = scn::load_scenario(REM_SCENARIO_DIR, name);
    const std::string once = scn::write_scenario_json(spec);
    std::istringstream is(once);
    EXPECT_EQ(scn::write_scenario_json(scn::read_scenario_json(is)), once);
    // And each must compile at its authored parameters.
    EXPECT_NO_THROW(scn::compile(spec));
  }
}

// --- the schema, pinned apart from its key lists ---------------------------
// The reader, the writer and digest_fields share one key list per record,
// so a round trip cannot catch a wrong row in a list; these tests spell the
// schema out by hand.

TEST(ScenarioSchema, EveryKeyReachesItsField) {
  // Every scalar key and entry 0 of each list, each at its own value off
  // the default: a key read into a neighbouring field shows up here.
  const auto s = parse(
      "{\n"
      "  \"schema\": \"rem-scenario-v1\",\n"
      "  \"name\": \"every_key\",\n"
      "  \"description\": \"each key once\",\n"
      "  \"paper_ref\": \"table 2\",\n"
      "  \"route\": \"la\",\n"
      "  \"layout\": \"dense_small_cell\",\n"
      "  \"speed_kmh\": \"81\",\n"
      "  \"duration_s\": \"82\",\n"
      "  \"time_compression\": \"1.5\",\n"
      "  \"seed\": \"84\",\n"
      "  \"ue.count\": \"7\",\n"
      "  \"ue.start_spread_m\": \"85\",\n"
      "  \"ue.class.0.name\": \"c0\",\n"
      "  \"ue.class.0.count\": \"7\",\n"
      "  \"ue.class.0.speed_lo_kmh\": \"71\",\n"
      "  \"ue.class.0.speed_hi_kmh\": \"72\",\n"
      "  \"fault.0.kind\": \"bs_overload\",\n"
      "  \"fault.0.start_s\": \"51\",\n"
      "  \"fault.0.duration_s\": \"52\",\n"
      "  \"fault.0.magnitude\": \"0.53\",\n"
      "  \"rfault.0.kind\": \"pilot_outage\",\n"
      "  \"rfault.0.mean_gap_s\": \"61\",\n"
      "  \"rfault.0.duration_lo_s\": \"62\",\n"
      "  \"rfault.0.duration_hi_s\": \"63\",\n"
      "  \"rfault.0.magnitude_lo\": \"64\",\n"
      "  \"rfault.0.magnitude_hi\": \"65\",\n"
      "  \"fault.domain_size\": \"41\",\n"
      "  \"fault.region_stagger_s\": \"0.42\",\n"
      "  \"fault.cascade_neighbor_radius\": \"43\",\n"
      "  \"resilience.load_ad_staleness_s\": \"0.44\",\n"
      "  \"resilience.breaker_trip_k\": \"45\",\n"
      "  \"resilience.breaker_cooldown_s\": \"0.46\",\n"
      "  \"resilience.storm_jitter_frac\": \"0.47\",\n"
      "  \"backhaul.enabled\": \"false\",\n"
      "  \"backhaul.base_latency_s\": \"0.011\",\n"
      "  \"backhaul.jitter_s\": \"0.012\",\n"
      "  \"backhaul.loss_prob\": \"0.013\",\n"
      "  \"backhaul.reorder_prob\": \"0.014\",\n"
      "  \"backhaul.reorder_extra_s\": \"0.015\",\n"
      "  \"backhaul.duplicate_prob\": \"0.016\",\n"
      "  \"backhaul.queue_capacity\": \"17\",\n"
      "  \"backhaul.reverse_latency_scale\": \"1.8\",\n"
      "  \"bs.profile\": \"edge\",\n"
      "  \"bs.enabled\": \"false\",\n"
      "  \"bs.slots\": \"21\",\n"
      "  \"bs.queue_capacity\": \"22\",\n"
      "  \"bs.prep_service_s\": \"0.023\",\n"
      "  \"bs.ctx_service_s\": \"0.024\",\n"
      "  \"bs.background_service_s\": \"0.025\",\n"
      "  \"bs.admission_load_threshold\": \"0.26\",\n"
      "  \"bs.reject_backoff_hint_s\": \"0.027\",\n"
      "  \"bs.admission_max_retries\": \"28\",\n"
      "  \"gate.max_rem_failure_ratio\": \"0.31\",\n"
      "  \"gate.rem_le_legacy\": \"false\",\n"
      "  \"gate.min_legacy_handovers\": \"32\",\n"
      "}\n");
  EXPECT_EQ(s.name, "every_key");
  EXPECT_EQ(s.description, "each key once");
  EXPECT_EQ(s.paper_ref, "table 2");
  EXPECT_EQ(s.route, rem::trace::Route::kLowMobilityLA);
  EXPECT_EQ(s.layout, scn::Layout::kDenseSmallCell);
  EXPECT_EQ(s.speed_kmh, 81.0);
  EXPECT_EQ(s.duration_s, 82.0);
  EXPECT_EQ(s.time_compression, 1.5);
  EXPECT_EQ(s.seed, 84u);
  EXPECT_EQ(s.ue_count, 7);
  EXPECT_EQ(s.start_spread_m, 85.0);
  ASSERT_EQ(s.classes.size(), 1u);
  EXPECT_EQ(s.classes[0].name, "c0");
  EXPECT_EQ(s.classes[0].count, 7);
  EXPECT_EQ(s.classes[0].speed_lo_kmh, 71.0);
  EXPECT_EQ(s.classes[0].speed_hi_kmh, 72.0);
  ASSERT_EQ(s.faults.size(), 1u);
  EXPECT_EQ(s.faults[0].kind, rem::sim::FaultKind::kBsOverload);
  EXPECT_EQ(s.faults[0].start_s, 51.0);
  EXPECT_EQ(s.faults[0].duration_s, 52.0);
  EXPECT_EQ(s.faults[0].magnitude, 0.53);
  ASSERT_EQ(s.rfaults.size(), 1u);
  EXPECT_EQ(s.rfaults[0].kind, rem::sim::FaultKind::kPilotOutage);
  EXPECT_EQ(s.rfaults[0].mean_gap_s, 61.0);
  EXPECT_EQ(s.rfaults[0].duration_lo_s, 62.0);
  EXPECT_EQ(s.rfaults[0].duration_hi_s, 63.0);
  EXPECT_EQ(s.rfaults[0].magnitude_lo, 64.0);
  EXPECT_EQ(s.rfaults[0].magnitude_hi, 65.0);
  EXPECT_EQ(s.fault_domain_size, 41);
  EXPECT_EQ(s.region_stagger_s, 0.42);
  EXPECT_EQ(s.cascade_neighbor_radius, 43);
  EXPECT_EQ(s.load_ad_staleness_s, 0.44);
  EXPECT_EQ(s.breaker_trip_k, 45);
  EXPECT_EQ(s.breaker_cooldown_s, 0.46);
  EXPECT_EQ(s.storm_jitter_frac, 0.47);
  EXPECT_FALSE(s.backhaul.enabled);
  EXPECT_EQ(s.backhaul.base_latency_s, 0.011);
  EXPECT_EQ(s.backhaul.jitter_s, 0.012);
  EXPECT_EQ(s.backhaul.loss_prob, 0.013);
  EXPECT_EQ(s.backhaul.reorder_prob, 0.014);
  EXPECT_EQ(s.backhaul.reorder_extra_s, 0.015);
  EXPECT_EQ(s.backhaul.duplicate_prob, 0.016);
  EXPECT_EQ(s.backhaul.queue_capacity, 17u);
  EXPECT_EQ(s.backhaul.reverse_latency_scale, 1.8);
  EXPECT_EQ(s.bs_profile, "edge");
  EXPECT_FALSE(s.bs_capacity.enabled);
  EXPECT_EQ(s.bs_capacity.slots, 21);
  EXPECT_EQ(s.bs_capacity.queue_capacity, 22u);
  EXPECT_EQ(s.bs_capacity.prep_service_s, 0.023);
  EXPECT_EQ(s.bs_capacity.ctx_service_s, 0.024);
  EXPECT_EQ(s.bs_capacity.background_service_s, 0.025);
  EXPECT_EQ(s.bs_capacity.admission_load_threshold, 0.26);
  EXPECT_EQ(s.bs_capacity.reject_backoff_hint_s, 0.027);
  EXPECT_EQ(s.bs_capacity.admission_max_retries, 28);
  EXPECT_EQ(s.gates.max_rem_failure_ratio, 0.31);
  EXPECT_FALSE(s.gates.rem_le_legacy);
  EXPECT_EQ(s.gates.min_legacy_handovers, 32);

  // The plain band cannot share a file with classes.
  const auto band = parse(minimal_json("  \"ue.speed_lo_kmh\": \"91\",\n"
                                       "  \"ue.speed_hi_kmh\": \"92\",\n"));
  EXPECT_EQ(band.ue_speed_lo_kmh, 91.0);
  EXPECT_EQ(band.ue_speed_hi_kmh, 92.0);
}

TEST(ScenarioSchema, CanonicalFormIsPinned) {
  // Key names, key order and value spellings of the canonical writer.
  EXPECT_EQ(scn::write_scenario_json(full_spec()), R"({
  "schema": "rem-scenario-v1",
  "name": "full",
  "description": "every field group populated",
  "paper_ref": "fig 9",
  "route": "beijing_taiyuan",
  "layout": "urban_canyon",
  "speed_kmh": "90",
  "duration_s": "80",
  "time_compression": "2",
  "seed": "77",
  "ue.count": "5",
  "ue.start_spread_m": "900",
  "ue.class.0.name": "vehicular",
  "ue.class.0.count": "3",
  "ue.class.0.speed_lo_kmh": "40",
  "ue.class.0.speed_hi_kmh": "100",
  "ue.class.1.name": "pedestrian",
  "ue.class.1.count": "2",
  "ue.class.1.speed_lo_kmh": "3",
  "ue.class.1.speed_hi_kmh": "6",
  "fault.0.kind": "bs_overload",
  "fault.0.start_s": "10",
  "fault.0.duration_s": "6",
  "fault.0.magnitude": "1",
  "rfault.0.kind": "pilot_outage",
  "rfault.0.mean_gap_s": "30",
  "rfault.0.duration_lo_s": "1",
  "rfault.0.duration_hi_s": "2",
  "rfault.0.magnitude_lo": "10",
  "rfault.0.magnitude_hi": "20",
  "fault.domain_size": "3",
  "fault.region_stagger_s": "0.25",
  "fault.cascade_neighbor_radius": "1",
  "resilience.load_ad_staleness_s": "1.5",
  "resilience.breaker_trip_k": "2",
  "resilience.breaker_cooldown_s": "4",
  "resilience.storm_jitter_frac": "0.20000000000000001",
  "backhaul.enabled": "true",
  "backhaul.base_latency_s": "0.0040000000000000001",
  "backhaul.jitter_s": "0.002",
  "backhaul.loss_prob": "0.029999999999999999",
  "backhaul.reorder_prob": "0",
  "backhaul.reorder_extra_s": "0.0060000000000000001",
  "backhaul.duplicate_prob": "0",
  "backhaul.queue_capacity": "64",
  "backhaul.reverse_latency_scale": "2",
  "bs.profile": "small_cell",
  "bs.enabled": "true",
  "bs.slots": "1",
  "bs.queue_capacity": "4",
  "bs.prep_service_s": "0.002",
  "bs.ctx_service_s": "0.002",
  "bs.background_service_s": "0.02",
  "bs.admission_load_threshold": "0.5",
  "bs.reject_backoff_hint_s": "0.080000000000000002",
  "bs.admission_max_retries": "8",
  "gate.max_rem_failure_ratio": "0.25",
  "gate.rem_le_legacy": "false",
  "gate.min_legacy_handovers": "7"
}
)");
}

/// Every key the writer emits for `spec`, list indices written as <i>.
std::vector<std::string> written_keys(const scn::ScenarioSpec& spec) {
  std::istringstream is(scn::write_scenario_json(spec));
  const std::regex index(R"(\.[0-9]+\.)");
  std::vector<std::string> keys;
  for (const auto& e : rem::common::flat_json::read(is, "written"))
    keys.push_back(std::regex_replace(e.key, index, ".<i>."));
  return keys;
}

TEST(ScenarioSchema, EveryWrittenKeyIsDocumented) {
  std::ifstream in(std::string(REM_SOURCE_DIR) + "/SCENARIOS.md");
  ASSERT_TRUE(in) << "cannot read SCENARIOS.md";
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  scn::ScenarioSpec plain;
  plain.name = "plain";
  plain.description = "a plain speed band";
  auto keys = written_keys(full_spec());  // classes and every knob
  const auto band = written_keys(plain);
  keys.insert(keys.end(), band.begin(), band.end());
  for (const char* shorthand : {"ue.pedestrian", "ue.vehicular", "ue.hst350"})
    keys.push_back(shorthand);
  for (const auto& key : keys)
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "SCENARIOS.md never names `" << key << "`";
}

TEST(ScenarioSchema, NamedShorthandsExpandToClasses) {
  const auto spec = parse(minimal_json("  \"ue.pedestrian\": \"2\",\n"
                                       "  \"ue.vehicular\": \"3\",\n"));
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.ue_count, 5);
  EXPECT_EQ(spec.classes[0].name, "pedestrian");
  EXPECT_EQ(spec.classes[0].count, 2);
  EXPECT_EQ(spec.classes[0].speed_lo_kmh, 3.0);
  EXPECT_EQ(spec.classes[0].speed_hi_kmh, 6.0);
  EXPECT_EQ(spec.classes[1].name, "vehicular");
  EXPECT_EQ(spec.classes[1].speed_hi_kmh, 100.0);
}

// --- reject-with-context --------------------------------------------------

TEST(ScenarioSchema, RejectsUnknownAndDuplicateKeys) {
  expect_throw_with<std::runtime_error>("unknown key(s) 'ue.warp_speed'", [] {
    parse(minimal_json("  \"ue.warp_speed\": \"9000\",\n"));
  });
  expect_throw_with<std::runtime_error>("duplicate key 'seed'", [] {
    parse(minimal_json("  \"seed\": \"1\",\n  \"seed\": \"2\",\n"));
  });
}

TEST(ScenarioSchema, RejectsBadSchemaAndMissingRequiredKeys) {
  expect_throw_with<std::runtime_error>("missing 'schema' key", [] {
    parse("{\n  \"name\": \"t\",\n  \"description\": \"d\",\n}\n");
  });
  expect_throw_with<std::runtime_error>("schema 'rem-scenario-v0'", [] {
    parse("{\n  \"schema\": \"rem-scenario-v0\",\n  \"name\": \"t\",\n"
          "  \"description\": \"d\",\n}\n");
  });
  expect_throw_with<std::runtime_error>("missing 'description' key", [] {
    parse("{\n  \"schema\": \"rem-scenario-v1\",\n  \"name\": \"t\",\n}\n");
  });
}

TEST(ScenarioSchema, RejectsMalformedLinesWithLineNumber) {
  expect_throw_with<std::runtime_error>("line 3", [] {
    parse("{\n  \"schema\": \"rem-scenario-v1\",\n  not json at all\n}\n");
  });
}

TEST(ScenarioSchema, RejectsContradictoryPopulationForms) {
  expect_throw_with<std::runtime_error>("contradictory UE population", [] {
    parse(minimal_json("  \"ue.speed_lo_kmh\": \"100\",\n"
                       "  \"ue.pedestrian\": \"2\",\n"));
  });
  expect_throw_with<std::runtime_error>("contradictory UE population", [] {
    parse(minimal_json("  \"ue.pedestrian\": \"2\",\n"
                       "  \"ue.class.0.name\": \"a\",\n"
                       "  \"ue.class.0.count\": \"1\",\n"
                       "  \"ue.class.0.speed_lo_kmh\": \"10\",\n"
                       "  \"ue.class.0.speed_hi_kmh\": \"20\",\n"));
  });
  expect_throw_with<std::runtime_error>("contradicts the class counts", [] {
    parse(minimal_json("  \"ue.count\": \"9\",\n"
                       "  \"ue.pedestrian\": \"2\",\n"));
  });
  expect_throw_with<std::runtime_error>("needs all of", [] {
    parse(minimal_json("  \"ue.class.0.name\": \"a\",\n"
                       "  \"ue.class.0.count\": \"1\",\n"));
  });
}

TEST(ScenarioSchema, RejectsUnknownFaultKindAndPartialWindow) {
  expect_throw_with<std::runtime_error>("fault.0.kind", [] {
    parse(minimal_json("  \"fault.0.kind\": \"meteor_strike\",\n"
                       "  \"fault.0.start_s\": \"1\",\n"
                       "  \"fault.0.duration_s\": \"1\",\n"
                       "  \"fault.0.magnitude\": \"1\",\n"));
  });
  expect_throw_with<std::runtime_error>(
      "needs all of kind/start_s/duration_s/magnitude", [] {
        parse(minimal_json("  \"fault.0.kind\": \"pilot_outage\",\n"));
      });
}

TEST(ScenarioSchema, RejectsNonFiniteAndOutOfRangeNumbers) {
  // strtod accepts these spellings; the reader must not.
  for (const char* v : {"inf", "-inf", "nan", "1e999"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>(
        std::string("key 'duration_s': non-finite number '") + v + "'", [&] {
          parse(minimal_json(std::string("  \"duration_s\": \"") + v +
                             "\",\n"));
        });
  }
  // 2^32 + 8 would wrap to 8 UEs through a long-to-int cast.
  expect_throw_with<std::runtime_error>(
      "key 'ue.count': integer out of range '4294967304'", [] {
        parse(minimal_json("  \"ue.count\": \"4294967304\",\n"));
      });
  expect_throw_with<std::runtime_error>(
      "key 'ue.count': integer out of range", [] {
        parse(minimal_json("  \"ue.count\": \"99999999999999999999\",\n"));
      });
  // strtoull saturates at 2^64 - 1 instead of failing.
  expect_throw_with<std::runtime_error>(
      "key 'seed': integer out of range '18446744073709551616'", [] {
        parse(minimal_json("  \"seed\": \"18446744073709551616\",\n"));
      });
  EXPECT_EQ(parse(minimal_json("  \"seed\": \"18446744073709551615\",\n"))
                .seed,
            18446744073709551615ull);
  // One number rule: strtol/strtod take these spellings, the reader must
  // not (" 5" and "+5" read as 5, "0x10" as 16).
  for (const char* v : {" 5", "+5"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>(
        std::string("key 'ue.count': malformed integer '") + v + "'", [&] {
          parse(minimal_json(std::string("  \"ue.count\": \"") + v +
                             "\",\n"));
        });
  }
  for (const char* v : {"0x10", " 120", "+120"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>(
        std::string("key 'duration_s': malformed number '") + v + "'", [&] {
          parse(minimal_json(std::string("  \"duration_s\": \"") + v +
                             "\",\n"));
        });
  }
}

TEST(ScenarioSchema, RejectsQueueCapacitiesBelowTheirBounds) {
  for (const char* v : {"0", "-1"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>(
        "key 'backhaul.queue_capacity': must be >= 1", [&] {
          parse(minimal_json(
              std::string("  \"backhaul.queue_capacity\": \"") + v +
              "\",\n"));
        });
  }
  expect_throw_with<std::runtime_error>(
      "key 'bs.queue_capacity': must be >= 0", [] {
        parse(minimal_json("  \"bs.queue_capacity\": \"-1\",\n"));
      });
  EXPECT_EQ(parse(minimal_json("  \"backhaul.queue_capacity\": \"1\",\n"))
                .backhaul.queue_capacity,
            1u);
  EXPECT_EQ(parse(minimal_json("  \"bs.queue_capacity\": \"0\",\n"))
                .bs_capacity.queue_capacity,
            0u);
  // With the transport off, compile still rejects what the reader would:
  // the canonical writer emits every backhaul key either way.
  auto off = full_spec();
  off.backhaul.enabled = false;
  off.backhaul.queue_capacity = 0;
  expect_throw_with<std::invalid_argument>(
      "scenario 'full': BackhaulConfig: queue_capacity must be >= 1",
      [&] { scn::compile(off); });
}

TEST(ScenarioCompile, RejectsWithScenarioNamedInContext) {
  // Overlapping scripted windows of the same kind: FaultInjector's own
  // validation fires, rewrapped with the scenario name prefixed.
  auto spec = full_spec();
  rem::sim::FaultWindow w = spec.faults[0];
  w.start_s = 12.0;  // overlaps [10, 16) of the same kind
  spec.faults.push_back(w);
  expect_throw_with<std::invalid_argument>("scenario 'full'", [&] {
    scn::compile(spec);
  });

  // Out-of-range speeds carry the offending field name.
  auto fast = full_spec();
  fast.classes[0].speed_hi_kmh = 700.0;
  expect_throw_with<std::invalid_argument>("speed_hi_kmh", [&] {
    scn::compile(fast);
  });

  // Class counts must sum to the UE count.
  auto sum = full_spec();
  sum.ue_count = 4;
  expect_throw_with<std::invalid_argument>("class counts sum to 5", [&] {
    scn::compile(sum);
  });

  // A ue_count override is meaningless against a pinned class mix.
  scn::CompileOverrides ov;
  ov.ue_count = 9;
  expect_throw_with<std::invalid_argument>("class-mix population", [&] {
    scn::compile(full_spec(), ov);
  });
}

// --- compiled-config bit-identity -----------------------------------------

TEST(ScenarioCompile, PlainSpecMatchesHandBuiltConfigBitForBit) {
  scn::ScenarioSpec spec;
  spec.name = "hand";
  spec.description = "hand-built reference";
  spec.route = rem::trace::Route::kBeijingShanghai;
  spec.speed_kmh = 300.0;
  spec.duration_s = 60.0;
  spec.seed = 5;
  spec.ue_count = 4;
  const auto compiled = scn::compile(spec);

  // The rail-linear layout leaves the route preset untouched, so the
  // compiled scenario must be make_scenario plus exactly the documented
  // fleet wiring and route-length recompute — nothing else.
  auto hand = rem::trace::make_scenario(spec.route, 300.0, 60.0);
  hand.sim.fleet_size = 4;
  hand.sim.fleet.speed_min_kmh = spec.ue_speed_lo_kmh;
  hand.sim.fleet.speed_max_kmh = spec.ue_speed_hi_kmh;
  hand.sim.fleet.start_spread_m = spec.start_spread_m;
  hand.deployment.route_len_m =
      rem::common::kmh_to_mps(spec.ue_speed_hi_kmh) * 60.0 +
      spec.start_spread_m + 2.0 * hand.deployment.site_spacing_mean_m;

  scn::CompiledScenario ref;
  ref.name = compiled.name;
  ref.description = compiled.description;
  ref.paper_ref = compiled.paper_ref;
  ref.scenario = hand;
  ref.seed = compiled.seed;
  ref.gates = compiled.gates;
  const auto a = scn::digest_fields(compiled);
  const auto b = scn::digest_fields(ref);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "field order diverged at " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "field " << a[i].first;
  }
}

TEST(ScenarioCompile, TimeCompressionScalesTimelineNotMagnitudes) {
  auto spec = full_spec();
  spec.time_compression = 1.0;
  scn::CompileOverrides ov;
  ov.extra_time_compression = 4.0;
  const auto c = scn::compile(spec, ov);
  EXPECT_DOUBLE_EQ(c.scenario.sim.duration_s, spec.duration_s / 4.0);
  ASSERT_EQ(c.scenario.sim.faults.windows.size(), 1u);
  const auto& w = c.scenario.sim.faults.windows[0];
  EXPECT_DOUBLE_EQ(w.start_s, 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(w.duration_s, 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(w.magnitude, 1.0);  // protocol quantity: never scaled
  ASSERT_EQ(c.scenario.sim.faults.random.size(), 1u);
  const auto& r = c.scenario.sim.faults.random[0];
  EXPECT_DOUBLE_EQ(r.mean_gap_s, 30.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.duration_lo_s, 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.magnitude_lo, 10.0);
  EXPECT_DOUBLE_EQ(r.magnitude_hi, 20.0);
}

TEST(ScenarioCompile, LayoutPresetsShapeDeployment) {
  scn::ScenarioSpec spec;
  spec.name = "l";
  spec.description = "layout probe";
  spec.route = rem::trace::Route::kLowMobilityLA;
  spec.speed_kmh = 30.0;
  spec.layout = scn::Layout::kDenseSmallCell;
  const auto dense = scn::compile(spec);
  EXPECT_LE(dense.scenario.deployment.site_spacing_mean_m, 220.0);
  EXPECT_EQ(dense.scenario.deployment.tx_power_dbm, 30.0);
  EXPECT_EQ(dense.scenario.deployment.holes_per_km, 0.0);
  ASSERT_EQ(dense.scenario.deployment.secondary_bandwidths_hz.size(), 2u);

  spec.layout = scn::Layout::kUrbanCanyon;
  const auto canyon = scn::compile(spec);
  EXPECT_LE(canyon.scenario.deployment.site_spacing_mean_m, 600.0);
  EXPECT_EQ(canyon.scenario.propagation.pathloss_exponent, 3.8);
  EXPECT_GT(canyon.scenario.deployment.primary_missing_prob,
            dense.scenario.deployment.primary_missing_prob);
}

// --- compiled fleet determinism across worker threads ---------------------

TEST(ScenarioCompile, CompiledFleetRunBitIdenticalAcrossOneTwoEightThreads) {
  scn::ScenarioSpec spec;
  spec.name = "det";
  spec.description = "thread determinism probe";
  spec.route = rem::trace::Route::kBeijingTaiyuan;
  spec.speed_kmh = 250.0;
  spec.duration_s = 20.0;
  spec.ue_count = 4;
  spec.ue_speed_lo_kmh = 200.0;
  spec.ue_speed_hi_kmh = 300.0;
  rem::sim::FaultWindow w;
  w.kind = rem::sim::FaultKind::kSignalingLoss;
  w.start_s = 5.0;
  w.duration_s = 4.0;
  w.magnitude = 0.6;
  spec.faults = {w};
  const auto compiled = scn::compile(spec);

  rem::phy::LogisticBlerModel bler;
  auto sc = compiled.scenario;
  sc.sim.record_events = true;
  const std::vector<std::uint64_t> seeds = {61, 62, 63, 64};
  const auto batch = [&](std::size_t threads) {
    std::vector<rem::sim::FleetResult> out(seeds.size());
    rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
      out[i] = rem::bench::run_fleet_scenario(sc, seeds[i], bler,
                                              /*use_rem=*/true,
                                              {"the determinism probe"});
    });
    return out;
  };
  const auto at1 = batch(1);
  const auto at2 = batch(2);
  const auto at8 = batch(8);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    ASSERT_EQ(at1[i].per_ue.size(), 4u);
    for (const auto* other : {&at2[i], &at8[i]}) {
      ASSERT_EQ(other->per_ue.size(), at1[i].per_ue.size());
      EXPECT_EQ(other->aggregate.handovers, at1[i].aggregate.handovers);
      EXPECT_EQ(other->aggregate.failures, at1[i].aggregate.failures);
      EXPECT_EQ(other->aggregate.events.size(),
                at1[i].aggregate.events.size());
      EXPECT_EQ(rem::testkit::hash_event_log(other->aggregate.events),
                rem::testkit::hash_event_log(at1[i].aggregate.events));
      for (std::size_t k = 0; k < at1[i].per_ue.size(); ++k)
        EXPECT_EQ(rem::testkit::hash_event_log(other->per_ue[k].events),
                  rem::testkit::hash_event_log(at1[i].per_ue[k].events));
    }
    EXPECT_GT(at1[i].aggregate.handovers, 0);
  }
}

}  // namespace
