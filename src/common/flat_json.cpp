#include "common/flat_json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_set>

namespace rem::common::flat_json {
namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Decimal integer of type T: from_chars takes no whitespace, no '+', and
/// a '-' only for signed types.
template <typename T>
T parse_integer(const std::string& s) {
  T v{};
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (end == last && ec == std::errc::result_out_of_range)
    throw std::invalid_argument("integer out of range '" + s + "'");
  if (end != last || ec != std::errc())
    throw std::invalid_argument("malformed integer '" + s + "'");
  return v;
}

}  // namespace

std::vector<Entry> read(std::istream& is, const std::string& label) {
  std::vector<Entry> entries;
  std::unordered_set<std::string> keys;
  std::string line;
  int line_no = 0;
  bool opened = false, closed = false;
  const auto bad = [&](const std::string& why) {
    fail(label, Entry{"", "", line_no, line}, why);
  };
  const auto unquote = [&](std::string_view sv) {
    if (sv.size() < 2 || sv.front() != '"' || sv.back() != '"')
      bad("expected a double-quoted string");
    std::string out;
    out.reserve(sv.size() - 2);
    for (std::size_t i = 1; i + 1 < sv.size(); ++i) {
      char c = sv[i];
      if (c == '"') bad("unescaped '\"' inside a string");
      if (c == '\\') {
        if (i + 2 >= sv.size()) bad("dangling escape");
        c = sv[++i];
        if (c != '"' && c != '\\')
          bad(std::string("unsupported escape '\\") + c + "'");
      }
      out.push_back(c);
    }
    return out;
  };
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view sv(line);
    sv.remove_prefix(std::min(sv.find_first_not_of(" \t"), sv.size()));
    sv.remove_suffix(sv.size() - (sv.find_last_not_of(" \t\r") + 1));
    if (sv.empty()) continue;
    if (sv == "{") {
      if (opened) bad("unexpected '{'");
      opened = true;
      continue;
    }
    if (sv == "}") {
      if (!opened || closed) bad("unexpected '}'");
      closed = true;
      continue;
    }
    if (!opened || closed) bad("content outside the object");
    if (sv.back() == ',') sv.remove_suffix(1);
    const std::size_t sep = sv.find("\": \"");
    if (sep == std::string_view::npos)
      bad("expected a '\"key\": \"value\"' pair");
    Entry e{unquote(sv.substr(0, sep + 1)), unquote(sv.substr(sep + 3)),
            line_no, line};
    if (!keys.insert(e.key).second) bad("duplicate key '" + e.key + "'");
    entries.push_back(std::move(e));
  }
  if (!closed)
    throw std::runtime_error(label + " JSON: unterminated object (no '}')");
  return entries;
}

void fail(const std::string& label, const Entry& e, const std::string& why) {
  throw std::runtime_error(label + " JSON line " + std::to_string(e.line) +
                           ": " + why + " in '" + e.text + "'");
}

void write(std::ostream& os,
           const std::vector<std::pair<std::string, std::string>>& entries) {
  for (const auto& [k, v] : entries)
    if (k.find('\n') != std::string::npos || v.find('\n') != std::string::npos)
      throw std::invalid_argument("flat JSON key '" + k +
                                  "': a key or value cannot hold a newline");
  os << "{\n";
  for (std::size_t i = 0; i < entries.size(); ++i)
    os << "  \"" << escaped(entries[i].first) << "\": \""
       << escaped(entries[i].second) << "\""
       << (i + 1 < entries.size() ? ",\n" : "\n");
  os << "}\n";
}

std::uint64_t parse_u64(const std::string& s) {
  return parse_integer<std::uint64_t>(s);
}

int parse_int(const std::string& s) { return parse_integer<int>(s); }

double parse_double(const std::string& s) {
  // Vet the spelling before strtod, which would also take whitespace, '+',
  // hex, `infinity` and `nan(...)`.
  const std::string_view body =
      std::string_view(s).substr(!s.empty() && s[0] == '-' ? 1 : 0);
  const bool decimal = !body.empty() && body[0] >= '0' && body[0] <= '9' &&
                       body.find_first_not_of("0123456789.eE+-") ==
                           std::string_view::npos;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (!(decimal || body == "inf" || body == "nan") ||
      end != s.c_str() + s.size())
    throw std::invalid_argument("malformed number '" + s + "'");
  return v;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace rem::common::flat_json
