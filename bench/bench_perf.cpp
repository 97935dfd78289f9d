// DSP/runner performance trajectory: times the cached-plan FFT on radix-2
// and Bluestein sizes, the in-place strided SFFT on OTFS grids, and the
// seed-parallel scenario runner against the serial one. Results go to
// BENCH_DSP.json (or argv[1]) so future changes can track the numbers.
//
// Exit-code gates: run_route parallel/serial and metrics on/off statistics
// must be bit-identical. Every timing is reported, none is gated.
//
// Usage: bench_perf [--smoke] [output.json]   (run from the repo root so
// the JSON lands next to README.md). --smoke shrinks every workload to a
// few seconds for ctest (label `perf`); the bit-identity gates still apply.
// Any other argument starting with '-' is a usage error (exit 2).
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "phy/otfs.hpp"
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double time_ns_per_op(std::size_t iters, const std::function<void()>& fn) {
  fn();  // warm-up (also primes the plan cache)
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

rem::dsp::CVec random_vec(std::size_t n, rem::common::Rng& rng) {
  rem::dsp::CVec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

rem::dsp::Matrix random_grid(std::size_t m, std::size_t n,
                             rem::common::Rng& rng) {
  rem::dsp::Matrix g(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.complex_gaussian(1.0);
  return g;
}

struct Entry {
  std::string name;
  double cached_ns;
};

bool runs_equal(const rem::bench::ScenarioRun& a,
                const rem::bench::ScenarioRun& b) {
  return rem::testkit::diff_stats(a.legacy.total, b.legacy.total).empty() &&
         rem::testkit::diff_stats(a.rem.total, b.rem.total).empty() &&
         a.conflict_histogram == b.conflict_histogram &&
         a.total_conflicts == b.total_conflicts;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.starts_with('-')) {
      std::fprintf(stderr,
                   "bench_perf: unknown option '%s'\n"
                   "usage: bench_perf [--smoke] [output.json]\n",
                   arg.c_str());
      return 2;
    } else {
      out_path = arg;
    }
  }
  if (out_path.empty())
    out_path = smoke ? "BENCH_DSP.smoke.json" : "BENCH_DSP.json";
  // Every timing below is scaled down by --smoke so a full run of the
  // binary fits in a ctest slot.
  const std::size_t iter_div = smoke ? 10 : 1;
  rem::common::Rng rng(7);
  std::vector<Entry> entries;

  // --- FFT: cached plans --------------------------------------------------
  struct FftCase {
    std::string name;
    std::size_t n;
    std::size_t iters;
  };
  const std::vector<FftCase> cases = {
      {"fft_pow2_2048", 2048, 2000},
      {"fft_pow2_65536", 65536, 50},
      {"fft_bluestein_1200", 1200, 300},
      {"fft_bluestein_1499_prime", 1499, 200},
      {"fft_bluestein_600", 600, 500},
  };
  for (const auto& c : cases) {
    const auto x = random_vec(c.n, rng);
    const std::size_t iters = std::max<std::size_t>(1, c.iters / iter_div);
    const double cached_ns = time_ns_per_op(iters, [&] {
      rem::dsp::CVec v = x;
      rem::dsp::fft(v);
    });
    entries.push_back({c.name, cached_ns});
    std::printf("%-28s cached %10.0f ns\n", c.name.c_str(), cached_ns);
  }

  // --- SFFT: in-place strided ---------------------------------------------
  struct GridCase {
    std::string name;
    std::size_t m, n, iters;
  };
  const std::vector<GridCase> grids = {
      {"sfft_64x16", 64, 16, 400},
      {"sfft_600x14", 600, 14, 60},
      {"sfft_1200x14_lte", 1200, 14, 30},
  };
  for (const auto& g : grids) {
    const auto grid = random_grid(g.m, g.n, rng);
    const std::size_t iters = std::max<std::size_t>(1, g.iters / iter_div);
    const double cached_ns = time_ns_per_op(iters, [&] {
      auto tf = rem::phy::sfft(grid);
      (void)tf;
    });
    entries.push_back({g.name, cached_ns});
    std::printf("%-28s cached %10.0f ns\n", g.name.c_str(), cached_ns);
  }

  // --- Scenario runner: serial vs seed-parallel ---------------------------
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1, 2}
            : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8};
  const double duration_s = smoke ? 20.0 : 150.0;
  const std::size_t hw_threads = rem::common::hardware_threads();
  // On a 1-core container the 4-thread run measures contention, not
  // speedup — the bit-identity gate still holds, but the wall-clock
  // comparison is annotated as invalid instead of read as a regression.
  const bool parallel_cmp_valid = hw_threads > 1;
  const auto route_sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, duration_s);
  const auto t0 = Clock::now();
  const auto serial = rem::bench::run_route(route_sc, seeds);
  const auto t1 = Clock::now();
  const auto par = rem::bench::run_route(route_sc, seeds, true, 4);
  const auto t2 = Clock::now();
  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double par_s = std::chrono::duration<double>(t2 - t1).count();
  const bool identical = runs_equal(serial, par);
  std::printf(
      "run_route %zu seeds: serial %.2f s, 4 threads %.2f s (%.2fx%s), "
      "identical=%s, hw threads=%zu\n",
      seeds.size(), serial_s, par_s, serial_s / par_s,
      parallel_cmp_valid ? "" : ", invalid on 1 hw thread",
      identical ? "true" : "false", hw_threads);

  // --- Metrics overhead: run_route with the obs layer on vs off -----------
  // Collecting metrics attaches a SpanTracer + per-seed Registry to every
  // simulation and reconciles trace vs stats; the acceptance bar is <= 1%
  // wall-clock overhead, reported here (timing is advisory, not an exit
  // gate — the statistics must still be bit-identical, which is gated).
  const auto t3 = Clock::now();
  const auto metrics_off = rem::bench::run_route(route_sc, seeds, true, 1,
                                                 {/*collect_metrics=*/false});
  const auto t4 = Clock::now();
  const auto metrics_on = rem::bench::run_route(route_sc, seeds, true, 1,
                                                {/*collect_metrics=*/true});
  const auto t5 = Clock::now();
  const double off_s = std::chrono::duration<double>(t4 - t3).count();
  const double on_s = std::chrono::duration<double>(t5 - t4).count();
  const double overhead_pct = 100.0 * (on_s - off_s) / off_s;
  const bool metrics_identical = runs_equal(metrics_off, metrics_on);
  const auto* latency =
      metrics_on.rem_metrics.find_histogram("sim.handover_latency_s");
  std::printf(
      "run_route metrics: off %.2f s, on %.2f s (overhead %+.2f%%), "
      "identical=%s, rem latency samples=%llu\n",
      off_s, on_s, overhead_pct, metrics_identical ? "true" : "false",
      latency != nullptr
          ? static_cast<unsigned long long>(latency->total_count())
          : 0ull);

  // --- JSON ---------------------------------------------------------------
  // Every timed section carries its own hardware_threads so a reader can
  // tell which numbers came from a 1-core container.
  std::ofstream js(out_path);
  js << "{\n";
  js << "  \"hardware_threads\": " << hw_threads << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"fft\": {\n";
  js << "    \"hardware_threads\": " << hw_threads << ",\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    js << "    \"" << e.name << "\": {\"cached_ns\": " << e.cached_ns << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  js << "  },\n";
  js << "  \"run_route\": {\"hardware_threads\": " << hw_threads
     << ", \"seeds\": " << seeds.size()
     << ", \"duration_s\": " << duration_s
     << ", \"serial_wall_s\": " << serial_s
     << ", \"parallel4_wall_s\": " << par_s
     << ", \"speedup\": " << serial_s / par_s
     << ", \"parallel_comparison_valid\": "
     << (parallel_cmp_valid ? "true" : "false")
     << ", \"bit_identical\": " << (identical ? "true" : "false") << "},\n";
  js << "  \"metrics_overhead\": {\"hardware_threads\": " << hw_threads
     << ", \"off_wall_s\": " << off_s
     << ", \"on_wall_s\": " << on_s
     << ", \"overhead_pct\": " << overhead_pct
     << ", \"stats_bit_identical\": "
     << (metrics_identical ? "true" : "false") << "}\n";
  js << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  const bool ok = identical && metrics_identical;
  if (!ok)
    std::printf("GATE FAILED: run_route_identical=%d metrics_identical=%d\n",
                identical, metrics_identical);
  return ok ? 0 : 1;
}
