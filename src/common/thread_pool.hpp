// Index-parallel loops for embarrassingly parallel bench and test work.
//
// The scenario runner forks an independent Rng per seed, so seeds can run on
// any thread in any order; determinism is recovered by merging results in
// seed order afterwards. parallel_for starts its threads per call and hands
// out indices through an atomic counter, so the threads self-balance across
// uneven seed costs.
//
// hardware_threads() is hardware concurrency — the bench harness layers the
// REM_BENCH_THREADS override on top (testkit::bench_threads(), knob table in
// OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <functional>

namespace rem::common {

/// Hardware concurrency, clamped to at least 1.
std::size_t hardware_threads();

/// Run fn(0), ..., fn(n-1) on min(num_threads, n) threads (0 means
/// hardware_threads()) and return when all calls finished. Indices are
/// claimed dynamically so uneven work self-balances. num_threads <= 1 (or
/// n <= 1) runs every index on the calling thread. The first exception
/// thrown by any fn is rethrown here after all indices complete.
void parallel_for(std::size_t n, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace rem::common
