// DSP performance trajectory: times the cached-plan FFT on radix-2 and
// Bluestein sizes and the in-place strided SFFT on OTFS grids. Results go
// to BENCH_DSP.json (or argv[1]) so future changes can track the numbers.
// Every timing is reported, none is gated.
//
// Usage: bench_perf [--smoke] [output.json]   (run from the repo root so
// the JSON lands next to README.md). --smoke shrinks every workload for
// ctest (label `perf`). Any other argument starting with '-' is a usage
// error (exit 2).
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "phy/otfs.hpp"

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

  // --- JSON ---------------------------------------------------------------
  std::ofstream js(out_path);
  js << "{\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"fft\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    js << "    \"" << e.name << "\": {\"cached_ns\": " << e.cached_ns << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  js << "  }\n";
  js << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
