// Flat-JSON codec: the one line format behind every pinned text artifact —
// library scenarios (rem-scenario-v1), metrics snapshots (rem-metrics-v1)
// and golden-trace digests. A file is a single JSON object holding one
// string-valued `"key": "value"` pair per line:
//
//   {
//     "schema": "rem-metrics-v1",
//     "counter.sim.handovers": "412"
//   }
//
// This module owns the line discipline, the escaping, the number spelling
// and the opening of every such file (read_file, write_file); each
// format's reader keeps only the interpretation of its own keys. Strings
// escape exactly `"` and `\` (as `\"` and `\\`); any other escape is
// rejected, and no key or value may hold a newline. Numbers travel as
// strings under one rule (the parse_* functions below), and doubles are
// written with format_double so they round-trip bit-exactly.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rem::common::flat_json {

/// One key/value pair of a flat object and the line it came from, so an
/// interpretation error can still name that line.
struct Entry {
  std::string key;
  std::string value;
  int line = 0;      ///< 1-based line number
  std::string text;  ///< the raw line
};

/// Read one flat object; entries come back in file order. Blank lines,
/// whitespace around a line and one trailing comma per pair are ignored.
/// `label` names the format in every error. A malformed line (a stray
/// brace, content outside the object, a line that is not one quoted
/// `"key": "value"` pair, a bad escape, a duplicate key) throws
/// std::runtime_error "<label> JSON line N: <why> in '<line>'"; input
/// that ends before the closing brace throws
/// "<label> JSON: unterminated object (no '}')".
std::vector<Entry> read(std::istream& is, const std::string& label);

/// Throw read()'s line error for an entry whose value the caller rejects.
[[noreturn]] void fail(const std::string& label, const Entry& e,
                       const std::string& why);

/// `parse(e.value)`, with a std::invalid_argument from the parser
/// rethrown as fail(label, e, reason).
template <typename Parse>
auto parse_at(const std::string& label, const Entry& e, Parse&& parse)
    -> decltype(parse(e.value)) {
  try {
    return parse(e.value);
  } catch (const std::invalid_argument& x) {
    fail(label, e, x.what());
  }
}

/// Write `entries` in order as one flat object: two-space indent, one
/// pair per line, `"` and `\` escaped. Throws std::invalid_argument naming
/// the key, before writing anything, if a key or value holds a newline.
void write(std::ostream& os,
           const std::vector<std::pair<std::string, std::string>>& entries);

/// The number rule every reader shares. It accepts every spelling the
/// writers emit (std::to_string integers and format_double output, `nan`
/// and `-inf` included) and rejects the extras strtod/strtol also take:
/// leading whitespace, a leading '+', hex and `infinity`.
///  - parse_u64: decimal digits, below 2^64;
///  - parse_int: an optional '-' and decimal digits, within int;
///  - parse_double: an optional '-', then `inf`, `nan`, or a decimal that
///    starts with a digit. A decimal too large for a double reads as
///    ±inf; callers that need finite values check for themselves.
/// Each throws std::invalid_argument carrying only the reason
/// ("malformed integer '+5'", "integer out of range '4294967304'",
/// "malformed number '0x10'"); the caller adds its line or key.
std::uint64_t parse_u64(const std::string& s);
int parse_int(const std::string& s);
double parse_double(const std::string& s);

/// `%.17g`: enough digits to round-trip every double bit-exactly.
std::string format_double(double v);

/// Open `path` and return `read(stream)`. `who` names the caller: a file
/// that cannot be opened throws std::runtime_error "<who>: cannot open
/// <path>", and a std::runtime_error from `read` comes back as
/// "<path>: <what>".
template <typename Read>
auto read_file(const std::string& who, const std::string& path, Read&& read)
    -> decltype(read(std::declval<std::istream&>())) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error(who + ": cannot open " + path);
  try {
    return read(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Open `path` for writing, call `write(stream)`, then close the file and
/// check the stream: std::runtime_error "<who>: cannot open <path>" or
/// "<who>: write failed for <path>". The check follows the close, which
/// flushes the last buffered block, so a full disk fails it even when the
/// whole output fits in the stream's buffer.
template <typename Write>
void write_file(const std::string& who, const std::string& path,
                Write&& write) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error(who + ": cannot open " + path);
  write(os);
  os.close();
  if (!os) throw std::runtime_error(who + ": write failed for " + path);
}

}  // namespace rem::common::flat_json
