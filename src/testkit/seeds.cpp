#include "testkit/seeds.hpp"

#include "common/parallel.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rem::testkit {
namespace {

/// An unsigned decimal integer from environment variable `var`.
std::uint64_t parse_unsigned(const char* var, const std::string& tok) {
  if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument(std::string(var) +
                                ": expected an unsigned integer, got '" +
                                tok + "'");
  try {
    return std::stoull(tok);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(var) + ": value out of range: '" +
                                tok + "'");
  }
}

}  // namespace

std::vector<std::uint64_t> property_seeds(
    std::vector<std::uint64_t> defaults) {
  const char* env = std::getenv("REM_TEST_SEEDS");
  if (env == nullptr || *env == '\0') return defaults;
  const std::string spec(env);

  if (spec.find(',') == std::string::npos) {
    // Bare count: widen the sweep in place, anchored at the first default
    // so the stock seeds stay covered.
    const std::uint64_t n = parse_unsigned("REM_TEST_SEEDS", spec);
    if (n == 0)
      throw std::invalid_argument("REM_TEST_SEEDS: count must be >= 1");
    const std::uint64_t start = defaults.empty() ? 1 : defaults.front();
    std::vector<std::uint64_t> seeds;
    seeds.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) seeds.push_back(start + i);
    return seeds;
  }

  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    seeds.push_back(
        parse_unsigned("REM_TEST_SEEDS", spec.substr(pos, end - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return seeds;
}

std::size_t bench_threads() {
  const char* env = std::getenv("REM_BENCH_THREADS");
  if (env == nullptr || *env == '\0')
    return common::hardware_threads();
  const std::uint64_t n = parse_unsigned("REM_BENCH_THREADS", env);
  if (n == 0)
    throw std::invalid_argument(
        "REM_BENCH_THREADS: count must be >= 1, got '" + std::string(env) +
        "'");
  return static_cast<std::size_t>(n);
}

}  // namespace rem::testkit
