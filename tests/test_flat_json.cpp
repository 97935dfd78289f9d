// Flat-JSON codec verification (label: tier1): the shared line reader,
// writer and number rule (common/flat_json); the escape and newline rules
// as the three formats built on them (rem-scenario-v1, rem-metrics-v1,
// golden digests) see them; a seeded-corruption fuzz over every committed
// file of each format; and a byte-for-byte read-then-write check of the
// committed goldens and metrics snapshots.
#include "common/flat_json.hpp"

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "scenario/scenario.hpp"
#include "testkit/golden.hpp"
#include "testkit/seeds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fj = rem::common::flat_json;

/// The std::runtime_error message `fn` throws, or "" when it returns.
template <typename Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// The std::invalid_argument message `fn` throws, or "" when it returns.
template <typename Fn>
std::string invalid_argument_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::vector<fj::Entry> read_text(const std::string& text) {
  std::istringstream is(text);
  return fj::read(is, "test");
}

// ---------------------------------------------------------------------------
// The codec itself

TEST(FlatJsonCodec, ReadKeepsFileOrderAndLines) {
  const auto entries =
      read_text("{\n  \"b\": \"2\",\n\n\t\"a\": \"\",  \r\n}\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "b");
  EXPECT_EQ(entries[0].value, "2");
  EXPECT_EQ(entries[0].line, 2);
  EXPECT_EQ(entries[0].text, "  \"b\": \"2\",");
  EXPECT_EQ(entries[1].key, "a");
  EXPECT_EQ(entries[1].value, "");
  EXPECT_EQ(entries[1].line, 4);
}

TEST(FlatJsonCodec, RejectsBadStructureUnderTheCallersLabel) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "test JSON: unterminated object (no '}')"},
      {"{\n  \"a\": \"1\"\n", "test JSON: unterminated object (no '}')"},
      {"{\n{\n}\n", "test JSON line 2: unexpected '{' in '{'"},
      {"}\n", "test JSON line 1: unexpected '}' in '}'"},
      {"{\n}\n}\n", "test JSON line 3: unexpected '}' in '}'"},
      {"\"a\": \"1\"\n{\n}\n",
       "test JSON line 1: content outside the object in '\"a\": \"1\"'"},
      {"{\n}\n  \"a\": \"1\"\n",
       "test JSON line 3: content outside the object in '  \"a\": \"1\"'"},
      {"{\n  a: 1\n}\n",
       "test JSON line 2: expected a '\"key\": \"value\"' pair in '  a: 1'"},
      {"{\n  \"a\": \"1\" ,\n}\n",
       "test JSON line 2: expected a double-quoted string"},
      {"{\n  \"a\": \"x\"y\"\n}\n",
       "test JSON line 2: unescaped '\"' inside a string"},
      {"{\n  \"a\": \"x\\\"\n}\n", "test JSON line 2: dangling escape"},
      {"{\n  \"a\": \"x\\n\"\n}\n",
       "test JSON line 2: unsupported escape '\\n' in '  \"a\": \"x\\n\"'"},
      {"{\n  \"a\\u00e9\": \"x\"\n}\n",
       "test JSON line 2: unsupported escape '\\u'"},
      {"{\n  \"a\": \"1\",\n  \"a\": \"2\"\n}\n",
       "test JSON line 3: duplicate key 'a' in '  \"a\": \"2\"'"},
  };
  for (const auto& [text, want] : cases) {
    SCOPED_TRACE(text);
    const std::string got = runtime_error_of([&] { read_text(text); });
    EXPECT_EQ(got.find(want), 0u) << "message was: " << got;
  }
}

TEST(FlatJsonCodec, FailNamesTheEntrysLine) {
  const auto entries = read_text("{\n\n  \"k\": \"v\"\n}\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(runtime_error_of([&] { fj::fail("x", entries[0], "bad k"); }),
            "x JSON line 3: bad k in '  \"k\": \"v\"'");
  EXPECT_EQ(runtime_error_of([&] {
              fj::parse_at("x", entries[0], fj::parse_double);
            }),
            "x JSON line 3: malformed number 'v' in '  \"k\": \"v\"'");
}

TEST(FlatJsonCodec, WriteEscapesAndRoundTripsEverythingButNewlines) {
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"plain", "1"},
      {"quote\"key", "say \"hi\""},
      {"back\\slash", "ends with \\"},
      {"sep\": \"key", "sep\": \"value"},
      {"\ttabbed", " spaced \t\r mixed \r"},
      {"", ""},
  };
  std::ostringstream os;
  fj::write(os, entries);
  const std::string head =
      "{\n  \"plain\": \"1\",\n  \"quote\\\"key\": \"say \\\"hi\\\"\",\n";
  const std::string tail = ",\n  \"\": \"\"\n}\n";
  EXPECT_EQ(os.str().rfind(head, 0), 0u) << os.str();
  EXPECT_EQ(os.str().substr(os.str().size() - tail.size()), tail);
  const auto back = read_text(os.str());
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].key, entries[i].first);
    EXPECT_EQ(back[i].value, entries[i].second);
  }
  std::ostringstream empty;
  fj::write(empty, {});
  EXPECT_EQ(empty.str(), "{\n}\n");
}

TEST(FlatJsonCodec, WriteRefusesNewlinesNamingTheKeyBeforeWriting) {
  std::ostringstream os;
  EXPECT_NE(invalid_argument_of([&] {
              fj::write(os, {{"ok", "1"}, {"description", "A\nB"}});
            }).find("key 'description'"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([&] {
              fj::write(os, {{"two\nlines", "v"}});
            }).find("key 'two\nlines'"),
            std::string::npos);
  EXPECT_EQ(os.str(), "");
}

TEST(FlatJsonCodec, NumberRuleAcceptsWhatTheWritersEmit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, 0.1 + 0.2, 1e300, -1e-300, 5e-324, 123456789.0,
                   inf, -inf, nan, -nan}) {
    const std::string s = fj::format_double(v);
    SCOPED_TRACE(s);
    const double back = fj::parse_double(s);
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &v, sizeof a);
    std::memcpy(&b, &back, sizeof b);
    EXPECT_EQ(a, b);  // bit-exact, NaN sign included
    EXPECT_EQ(fj::format_double(back), s);
  }
  EXPECT_EQ(fj::format_double(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(fj::parse_double("1e+300"), 1e300);
  EXPECT_EQ(fj::parse_double("2.5e-3"), 2.5e-3);
  EXPECT_EQ(fj::parse_double("7"), 7.0);
  // Too large for a double reads as inf: the caller judges finiteness.
  EXPECT_EQ(fj::parse_double("1e999"), inf);
  EXPECT_EQ(fj::parse_double("-1e999"), -inf);
  for (int v : {std::numeric_limits<int>::min(), -1, 0, 42,
                std::numeric_limits<int>::max()})
    EXPECT_EQ(fj::parse_int(std::to_string(v)), v);
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                          std::numeric_limits<std::uint64_t>::max()})
    EXPECT_EQ(fj::parse_u64(std::to_string(v)), v);
  EXPECT_EQ(fj::parse_int("007"), 7);
}

TEST(FlatJsonCodec, NumberRuleRejectsEveryOtherSpelling) {
  const auto reason = [](auto parse, const std::string& s) {
    return invalid_argument_of([&] { parse(s); });
  };
  for (const char* s : {" 5", "+5", "5 ", "0x10", "", "-", "--5", "1e3",
                        "5.0", "5,0"}) {
    SCOPED_TRACE(s);
    EXPECT_EQ(reason(fj::parse_int, s),
              std::string("malformed integer '") + s + "'");
  }
  for (const char* s : {" 1", "+1", "-1", "-0", "0x1", "", "1.0"}) {
    SCOPED_TRACE(s);
    EXPECT_EQ(reason(fj::parse_u64, s),
              std::string("malformed integer '") + s + "'");
  }
  for (const char* s : {" 1", "+1", "1 ", "0x10", " 0x1p3", "0x1p3", "",
                        "-", ".5", "1e", "1e+", "1.2.3", "1,5", "infinity",
                        "INF", "NaN", "+inf", "nan(1)", "- 1", "--1"}) {
    SCOPED_TRACE(s);
    EXPECT_EQ(reason(fj::parse_double, s),
              std::string("malformed number '") + s + "'");
  }
  EXPECT_EQ(reason(fj::parse_int, "4294967304"),
            "integer out of range '4294967304'");
  EXPECT_EQ(reason(fj::parse_int, "-2147483649"),
            "integer out of range '-2147483649'");
  EXPECT_EQ(reason(fj::parse_u64, "18446744073709551616"),
            "integer out of range '18446744073709551616'");
}

// ---------------------------------------------------------------------------
// The escape and newline rules as each format sees them

std::string scenario_json(const std::string& description) {
  return "{\n"
         "  \"schema\": \"rem-scenario-v1\",\n"
         "  \"name\": \"t\",\n"
         "  \"description\": \"" +
         description + "\"\n}\n";
}

TEST(FlatJsonFormats, ReadersRejectUnsupportedEscapesNamingTheLine) {
  EXPECT_EQ(runtime_error_of([] {
              std::istringstream is(scenario_json("A\\nB\\u00e9"));
              rem::scenario::read_scenario_json(is);
            }),
            "scenario JSON line 4: unsupported escape '\\n' in "
            "'  \"description\": \"A\\nB\\u00e9\"'");
  EXPECT_NE(runtime_error_of([] {
              std::istringstream is(
                  "{\n\"schema\": \"rem-metrics-v1\",\n"
                  "\"counter.a\\tb\": \"1\"\n}\n");
              rem::obs::read_metrics_json(is);
            }).find("metrics JSON line 3: unsupported escape '\\t'"),
            std::string::npos);
  EXPECT_NE(runtime_error_of([] {
              std::istringstream is("{\n\"case\": \"c\\/d\"\n}\n");
              rem::testkit::read_digest_json(is);
            }).find("digest JSON line 2: unsupported escape '\\/'"),
            std::string::npos);
}

TEST(FlatJsonFormats, WritersRefuseNewlinesNamingTheKey) {
  rem::scenario::ScenarioSpec spec;
  spec.name = "t";
  spec.description = "A\nB";
  EXPECT_NE(invalid_argument_of([&] {
              rem::scenario::write_scenario_json(spec);
            }).find("key 'description'"),
            std::string::npos);
  rem::testkit::TraceDigest d;
  d.case_name = "c";
  d.fields = {{"route", "la"}, {"note", "x\ny"}};
  std::ostringstream os;
  EXPECT_NE(invalid_argument_of([&] {
              rem::testkit::write_digest_json(d, os);
            }).find("key 'note'"),
            std::string::npos);
  rem::obs::MetricsSnapshot snap;
  snap.counters.push_back({"a\nb", 1});
  EXPECT_NE(invalid_argument_of([&] {
              rem::obs::write_metrics_json(snap, os);
            }).find("key 'counter.a\nb'"),
            std::string::npos);
  EXPECT_EQ(os.str(), "");
}

TEST(FlatJsonFormats, FileWrappersNameTheCallerAndThePath) {
  // A path under a directory that does not exist can be neither read nor
  // written; each wrapper names itself and the path.
  const std::string missing = "test_flat_json_no_such_dir/x.json";
  EXPECT_EQ(runtime_error_of([&] {
              rem::scenario::read_scenario_json_file(missing);
            }),
            "read_scenario_json_file: cannot open " + missing);
  EXPECT_EQ(
      runtime_error_of([&] { rem::obs::read_metrics_json_file(missing); }),
      "read_metrics_json_file: cannot open " + missing);
  EXPECT_EQ(runtime_error_of(
                [&] { rem::testkit::read_digest_json_file(missing); }),
            "read_digest_json_file: cannot open " + missing);
  EXPECT_EQ(runtime_error_of([&] {
              rem::obs::write_metrics_json_file({}, missing);
            }),
            "write_metrics_json_file: cannot open " + missing);
  EXPECT_EQ(runtime_error_of([&] {
              rem::testkit::write_digest_json_file({}, missing);
            }),
            "write_digest_json_file: cannot open " + missing);
  // A reader's own error comes back prefixed with the path.
  const std::string bad = "test_flat_json_bad.json";
  std::ofstream(bad) << "{\n  oops\n}\n";
  for (const auto& msg :
       {runtime_error_of([&] { rem::scenario::read_scenario_json_file(bad); }),
        runtime_error_of([&] { rem::obs::read_metrics_json_file(bad); }),
        runtime_error_of([&] { rem::testkit::read_digest_json_file(bad); })})
    EXPECT_EQ(msg.rfind(bad + ": ", 0), 0u) << msg;
  std::remove(bad.c_str());
}

TEST(FlatJsonFormats, FileWritersFailOnAFullDevice) {
  // /dev/full opens but fails every write. The files here fit in the
  // stream's buffer, so only the check after the final flush sees it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(runtime_error_of([&] {
              rem::obs::write_metrics_json_file({}, "/dev/full");
            }),
            "write_metrics_json_file: write failed for /dev/full");
  EXPECT_EQ(runtime_error_of([&] {
              rem::testkit::write_digest_json_file({}, "/dev/full");
            }),
            "write_digest_json_file: write failed for /dev/full");
}

TEST(FlatJsonFormats, TabsAndCarriageReturnsRoundTrip) {
  rem::scenario::ScenarioSpec spec;
  spec.name = "t";
  spec.description = "\ttab\there\rcr\r";
  const std::string once = rem::scenario::write_scenario_json(spec);
  std::istringstream sis(once);
  const auto back = rem::scenario::read_scenario_json(sis);
  EXPECT_EQ(back.description, spec.description);
  EXPECT_EQ(rem::scenario::write_scenario_json(back), once);

  rem::testkit::TraceDigest d;
  d.case_name = "c\r";
  d.fields = {{"k\tx", "a\tb\r"}};
  std::stringstream ds;
  rem::testkit::write_digest_json(d, ds);
  const auto dback = rem::testkit::read_digest_json(ds);
  EXPECT_EQ(dback.case_name, d.case_name);
  EXPECT_EQ(dback.fields, d.fields);
}

TEST(FlatJsonFormats, MetricsRoundTripNonFiniteValues) {
  rem::obs::Registry r;
  r.gauge("g.neg_inf")->set(-std::numeric_limits<double>::infinity());
  r.gauge("g.nan")->set(std::numeric_limits<double>::quiet_NaN());
  auto* h = r.histogram("h.poisoned", {1.0, 2.0});
  h->record(0.5);
  h->record(std::numeric_limits<double>::quiet_NaN());
  std::ostringstream once;
  rem::obs::write_metrics_json(r.snapshot(), once);
  EXPECT_NE(once.str().find("\"gauge.g.neg_inf\": \"-inf\""),
            std::string::npos);
  EXPECT_NE(once.str().find("nan\""), std::string::npos);
  std::istringstream is(once.str());
  const auto back = rem::obs::read_metrics_json(is);
  EXPECT_TRUE(std::isnan(back.find_gauge("g.nan")->value));
  EXPECT_EQ(back.find_gauge("g.neg_inf")->value,
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(back.find_histogram("h.poisoned")->sum));
  std::ostringstream twice;
  rem::obs::write_metrics_json(back, twice);
  EXPECT_EQ(twice.str(), once.str());
}

// ---------------------------------------------------------------------------
// Every committed file of every format

enum class Format { kScenario, kMetrics, kDigest };

struct CommittedFile {
  std::string path;
  Format format;
  std::string text;
};

const char* label_of(Format f) {
  switch (f) {
    case Format::kScenario: return "scenario JSON";
    case Format::kMetrics: return "metrics JSON";
    case Format::kDigest: return "digest JSON";
  }
  return "";
}

/// The 14 library scenarios, the golden digests and both committed
/// metrics snapshots, each with its contents, in path order.
const std::vector<CommittedFile>& committed_files() {
  static const std::vector<CommittedFile> files = [] {
    const std::string root = REM_SOURCE_DIR;
    std::vector<CommittedFile> out;
    const auto add = [&](const std::filesystem::path& p, Format f) {
      std::ifstream is(p);
      std::string text((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
      out.push_back({p.string(), f, std::move(text)});
    };
    for (const auto& [dir, f] :
         {std::pair{root + "/scenarios", Format::kScenario},
          std::pair{root + "/tests/golden", Format::kDigest}})
      for (const auto& e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".json") add(e.path(), f);
    for (const char* name :
         {"BENCH_CHAOS_metrics.json", "BENCH_FLEET_metrics.json"})
      add(root + "/" + name, Format::kMetrics);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.path < b.path; });
    return out;
  }();
  return files;
}

/// Read `text` as `format` and write it back.
std::string reread(Format format, const std::string& text) {
  std::istringstream is(text);
  std::ostringstream os;
  switch (format) {
    case Format::kScenario:
      rem::scenario::write_scenario_json(
          rem::scenario::read_scenario_json(is), os);
      break;
    case Format::kMetrics:
      rem::obs::write_metrics_json(rem::obs::read_metrics_json(is), os);
      break;
    case Format::kDigest:
      rem::testkit::write_digest_json(rem::testkit::read_digest_json(is), os);
      break;
  }
  return os.str();
}

TEST(FlatJsonCorpus, EveryFormatHasCommittedFiles) {
  int counts[3] = {0, 0, 0};
  for (const auto& f : committed_files()) {
    EXPECT_FALSE(f.text.empty()) << f.path;
    ++counts[static_cast<int>(f.format)];
  }
  EXPECT_GE(counts[static_cast<int>(Format::kScenario)], 14);
  EXPECT_GE(counts[static_cast<int>(Format::kDigest)], 32);
  EXPECT_EQ(counts[static_cast<int>(Format::kMetrics)], 2);
}

TEST(FlatJsonCorpus, CommittedGoldensAndMetricsRewriteByteForByte) {
  for (const auto& f : committed_files()) {
    if (f.format == Format::kScenario) continue;  // hand-authored layout
    SCOPED_TRACE(f.path);
    EXPECT_EQ(reread(f.format, f.text), f.text);
  }
}

/// One random corruption: drop, duplicate or truncate a line, or insert
/// or overwrite one byte with a character the line format gives meaning.
std::string mutate(const std::string& text, rem::common::Rng& rng) {
  static constexpr char kBytes[] = {'"', '\\', '{', '}', ',',
                                    ':', ' ',  '\n', '\t'};
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto byte = [&] { return kBytes[below(std::size(kBytes))]; };
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  const auto joined = [&] {
    std::string out;
    for (const auto& l : lines) out += l + "\n";
    return out;
  };
  std::string out = text;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      lines.erase(lines.begin() + static_cast<long>(below(lines.size())));
      return joined();
    case 1: {
      const std::size_t i = below(lines.size());
      lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
      return joined();
    }
    case 2: {
      std::string& l = lines[below(lines.size())];
      l.resize(below(l.size() + 1));
      return joined();
    }
    case 3:
      out.insert(below(out.size() + 1), 1, byte());
      return out;
    default:
      out[below(out.size())] = byte();
      return out;
  }
}

class FlatJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatJsonFuzz, CorruptedFilesParseOrRejectUnderTheirLabel) {
  rem::common::Rng rng(GetParam());
  int accepted = 0, rejected = 0;
  for (const auto& f : committed_files()) {
    for (int iter = 0; iter < 60; ++iter) {
      const std::string input = mutate(f.text, rng);
      try {
        // Whatever a reader accepts, its writer can write, and reading
        // that back changes nothing.
        const std::string once = reread(f.format, input);
        EXPECT_EQ(reread(f.format, once), once) << f.path << ":\n" << input;
        ++accepted;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind(label_of(f.format), 0), 0u)
            << f.path << ": " << e.what() << "\n" << input;
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.path << ": not a std::runtime_error: " << e.what()
                      << "\n" << input;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlatJsonFuzz,
    ::testing::ValuesIn(rem::testkit::property_seeds({1, 2, 3})));

}  // namespace
