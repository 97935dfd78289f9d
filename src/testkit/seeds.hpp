// Environment-driven test knobs: seed sweeps and the worker count of the
// seed-parallel harnesses. Kept in testkit so tests and benches share one
// parser.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rem::testkit {

/// Seed list for randomized property tests. Reads the `REM_TEST_SEEDS`
/// environment variable:
///  - unset or empty  -> `defaults`, unchanged;
///  - a bare count N  -> N consecutive seeds starting at defaults.front()
///    (or 1 when `defaults` is empty);
///  - a comma list    -> exactly those seed values.
/// Throws std::invalid_argument on anything unparseable — a typo in CI
/// configuration must fail loudly, not silently shrink the sweep.
std::vector<std::uint64_t> property_seeds(
    std::vector<std::uint64_t> defaults);

/// Worker count for seed-parallel benches and tests. Reads the
/// `REM_BENCH_THREADS` environment variable:
///  - unset or empty   -> common::hardware_threads();
///  - an integer N >= 1 -> N.
/// Anything else (`0`, `-2`, `4x`, `abc`) throws std::invalid_argument
/// naming the value, so a 1-vs-4-thread determinism check cannot quietly
/// compare two runs at the same thread count.
std::size_t bench_threads();

}  // namespace rem::testkit
