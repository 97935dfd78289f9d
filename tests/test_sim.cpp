#include "common/units.hpp"
#include "sim/radio_env.hpp"
#include "common/stats.hpp"
#include "phy/bler_model.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/tcp.hpp"
#include "trace/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rs = rem::sim;

namespace {
rs::RadioEnv small_env(std::uint64_t seed = 1,
                       std::vector<rs::HoleSegment> holes = {}) {
  rem::common::Rng rng(seed);
  rs::DeploymentConfig dc;
  dc.route_len_m = 10e3;
  dc.site_spacing_mean_m = 1000.0;
  dc.site_spacing_jitter_m = 100.0;
  auto cells = rs::make_rail_deployment(dc, rng);
  return rs::RadioEnv(std::move(cells), rs::PropagationConfig{}, rng.fork(),
                      std::move(holes));
}
}  // namespace

TEST(Deployment, CoversRouteWithSites) {
  rem::common::Rng rng(2);
  rs::DeploymentConfig dc;
  dc.route_len_m = 20e3;
  dc.site_spacing_mean_m = 1000.0;
  const auto cells = rs::make_rail_deployment(dc, rng);
  ASSERT_FALSE(cells.empty());
  // Roughly route/spacing sites; each hosting 1-2 cells.
  int max_site = 0;
  for (const auto& c : cells) max_site = std::max(max_site, c.id.base_station);
  EXPECT_NEAR(max_site, 19, 4);
  EXPECT_GE(cells.size(), static_cast<std::size_t>(max_site));
  // Unique cell ids.
  std::set<int> ids;
  for (const auto& c : cells) ids.insert(c.id.cell);
  EXPECT_EQ(ids.size(), cells.size());
}

TEST(Deployment, PrimaryLayerSharedChannel) {
  rem::common::Rng rng(3);
  rs::DeploymentConfig dc;
  dc.route_len_m = 40e3;
  const auto cells = rs::make_rail_deployment(dc, rng);
  // Apart from the few corridor-gap sites, the first cell of every site
  // uses the corridor channel.
  std::map<int, rem::mobility::ChannelId> first_channel;
  for (const auto& c : cells) first_channel.try_emplace(c.id.base_station,
                                                        c.id.channel);
  int on_corridor = 0;
  for (const auto& [site, ch] : first_channel)
    on_corridor += (ch == dc.channels[0].first);
  const double frac = static_cast<double>(on_corridor) /
                      static_cast<double>(first_channel.size());
  EXPECT_NEAR(frac, 1.0 - dc.primary_missing_prob, 0.1);
}

TEST(Deployment, ColocationProbabilityRespected) {
  rem::common::Rng rng(4);
  rs::DeploymentConfig dc;
  dc.route_len_m = 200e3;
  dc.colocated_second_cell_prob = 0.75;
  const auto cells = rs::make_rail_deployment(dc, rng);
  std::map<int, int> cells_per_site;
  for (const auto& c : cells) ++cells_per_site[c.id.base_station];
  int two = 0;
  for (const auto& [site, n] : cells_per_site) two += (n == 2);
  const double frac =
      static_cast<double>(two) / static_cast<double>(cells_per_site.size());
  // Only corridor-layer sites can host a second cell.
  const double expected =
      (1.0 - dc.primary_missing_prob) * dc.colocated_second_cell_prob;
  EXPECT_NEAR(frac, expected, 0.08);
}

TEST(RadioEnv, RsrpDecaysWithDistance) {
  const auto env = small_env();
  const auto& c0 = env.cells()[0];
  const double near = env.mean_rsrp_dbm(0, c0.site_pos_m);
  const double far = env.mean_rsrp_dbm(0, c0.site_pos_m + 3000.0);
  EXPECT_GT(near, far + 15.0);
}

TEST(RadioEnv, CoSitedCellsShareShadowing) {
  // Co-sited cells' RSRP difference should be nearly constant along the
  // track (shared site shadowing), unlike cells on different sites.
  const auto env = small_env(5);
  // Find a site with two cells.
  int site = -1;
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i + 1 < env.cells().size(); ++i) {
    if (env.cells()[i].id.base_station ==
        env.cells()[i + 1].id.base_station) {
      site = env.cells()[i].id.base_station;
      a = i;
      b = i + 1;
      break;
    }
  }
  ASSERT_GE(site, 0) << "no co-sited pair in deployment";
  rem::common::Summary diff;
  for (double x = 0; x < 5000.0; x += 50.0)
    diff.add(env.mean_rsrp_dbm(a, x) - env.mean_rsrp_dbm(b, x));
  // Difference = frequency term + small per-cell residual only.
  EXPECT_LT(diff.stddev(), 2.5);
}

TEST(RadioEnv, HoleSegmentKillsCoverage) {
  std::vector<rs::HoleSegment> holes = {{2000.0, 300.0}};
  const auto env = small_env(6, holes);
  EXPECT_TRUE(env.position_in_hole(2100.0));
  EXPECT_FALSE(env.position_in_hole(1900.0));
  EXPECT_LT(env.best_cell(2150.0, -120.0), 0);   // no usable cell inside
  EXPECT_GE(env.best_cell(5000.0, -120.0), 0);   // fine outside
}

TEST(RadioEnv, DdSnrIsMoreStableThanInstantRsrp) {
  const auto env = small_env(7);
  rem::common::Rng rng(8);
  rem::common::Summary rsrp, dd;
  for (int i = 0; i < 500; ++i) {
    rsrp.add(env.instant_rsrp_dbm(0, 500.0, rng));
    dd.add(env.dd_snr_db(0, 500.0, rng));
  }
  EXPECT_GT(rsrp.stddev(), 2.0 * dd.stddev());
}

TEST(RadioEnv, BestCellPicksNearest) {
  const auto env = small_env(9);
  // At a site's position, that site's primary cell should usually win.
  const auto& cells = env.cells();
  int hits = 0, trials = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].id.channel != 1825) continue;  // corridor layer only
    ++trials;
    const int best = env.best_cell(cells[i].site_pos_m, -120.0);
    ASSERT_GE(best, 0);
    if (env.cells()[static_cast<std::size_t>(best)].id.base_station ==
        cells[i].id.base_station)
      ++hits;
  }
  ASSERT_GT(trials, 3);
  EXPECT_GE(hits * 10, trials * 7);  // >= 70% despite shadowing
}

// ---------- Hole index and reach window ----------

namespace {

/// A deployment numbered out of track order: ten sites whose first cells
/// take indices in a shuffled site order, then second cells on every
/// even site appended at the end, so co-sited cells are never adjacent.
/// Carriers, offsets and powers vary per cell.
std::vector<rs::Cell> shuffled_cells() {
  const int site_order[] = {7, 2, 9, 0, 4, 8, 1, 6, 3, 5};
  const double carriers[] = {1.835e9, 2.665e9, 0.874e9};
  std::vector<rs::Cell> cells;
  for (int k = 0; k < 10; ++k) {
    const int site = site_order[k];
    rs::Cell c;
    c.id = {k, site, 1825};
    c.site_pos_m = 400.0 + 850.0 * site;
    c.site_offset_m = 60.0 + 37.0 * (k % 5);
    c.carrier_hz = carriers[k % 3];
    c.tx_power_dbm = 46.0 - 3.0 * (k % 2);
    cells.push_back(c);
  }
  for (int k = 0; k < 10; ++k) {
    if (site_order[k] % 2 != 0) continue;
    rs::Cell c = cells[static_cast<std::size_t>(k)];
    c.id = {static_cast<int>(cells.size()), site_order[k], 2452};
    c.carrier_hz = carriers[(k + 1) % 3];
    cells.push_back(c);
  }
  return cells;
}

/// Overlapping, nested, back-to-back and empty segments, listed unsorted.
std::vector<rs::HoleSegment> tangled_holes() {
  return {{5200.0, 300.0}, {1000.0, 500.0}, {1200.0, 100.0},
          {1400.0, 400.0}, {5000.0, 300.0}, {3000.0, 0.0},
          {6100.0, 150.0}, {6250.0, 150.0}};
}

/// Every 10 m from `from_m` to `to_m`, at floors -130/-120/-114 dBm:
/// cells_in_reach is strictly ascending and holds every cell whose mean
/// RSRP reaches the floor, and best_cell returns what an ascending scan
/// over every cell returns: with no mask, with a one-hot mask on that
/// scan's winner, and with a mask on every third cell. Returns
/// the first mismatch, or "" when none. Callers start 1 m short of a
/// 10 m shadowing-grid node, so every position interpolates toward the
/// node on its right, the one a 1 km block shares with the next.
std::string window_mismatch(const rs::RadioEnv& env, double from_m,
                            double to_m) {
  const std::size_t n = env.cells().size();
  std::vector<double> mean(n);
  std::vector<char> mask(n, 0);
  for (std::size_t i = 0; i < n; i += 3) mask[i] = 1;
  // Brute-force best_cell: ascending scan, strictly above the floor.
  const auto scan = [&](double floor, auto skip) {
    int best = -1;
    double best_rsrp = floor;
    for (std::size_t i = 0; i < n; ++i) {
      if (skip(i) || !(mean[i] > best_rsrp)) continue;
      best_rsrp = mean[i];
      best = static_cast<int>(i);
    }
    return best;
  };
  std::vector<std::size_t> window;
  const auto steps = static_cast<long>((to_m - from_m) / 10.0);
  for (long k = 0; k <= steps; ++k) {
    const double x = from_m + 10.0 * static_cast<double>(k);
    for (std::size_t i = 0; i < n; ++i) mean[i] = env.mean_rsrp_dbm(i, x);
    for (double floor : {-130.0, -120.0, -114.0}) {
      std::ostringstream at;
      at << "x=" << x << " floor=" << floor << ": ";
      env.cells_in_reach(x, floor, window);
      for (std::size_t j = 1; j < window.size(); ++j)
        if (!(window[j - 1] < window[j]))
          return at.str() + "window not strictly ascending";
      for (std::size_t i = 0; i < n; ++i)
        if (mean[i] >= floor &&
            !std::binary_search(window.begin(), window.end(), i))
          return at.str() + "cell " + std::to_string(i) + " (mean " +
                 std::to_string(mean[i]) + " dBm) missing from the window";
      const int best = scan(floor, [](std::size_t) { return false; });
      if (env.best_cell(x, floor) != best)
        return at.str() + "best_cell != " + std::to_string(best);
      const int second = scan(
          floor, [&](std::size_t i) { return static_cast<int>(i) == best; });
      std::vector<char> one_hot(n, 0);
      if (best >= 0) one_hot[static_cast<std::size_t>(best)] = 1;
      if (env.best_cell(x, floor, one_hot) != second)
        return at.str() + "best_cell excluding " + std::to_string(best) +
               " != " + std::to_string(second);
      const int masked = scan(floor, [&](std::size_t i) { return mask[i]; });
      if (env.best_cell(x, floor, mask) != masked)
        return at.str() + "masked best_cell != " + std::to_string(masked);
    }
  }
  return "";
}

rem::trace::World draw_world(const rem::trace::Scenario& sc,
                             std::uint64_t seed) {
  rem::common::Rng rng(seed);
  return rem::trace::make_world(sc, rng);
}

/// A Beijing-Shanghai 340 km/h preset world: the route grows with the
/// horizon (about 153 km and 243 cells at 1600 s).
struct PresetWorld {
  double route_len_m;
  double candidate_floor_dbm;  ///< the policy loop's filter floor
  rem::trace::World world;
};

/// World seeds for the presets; 5 is the hst_long_route benchmark's.
constexpr std::uint64_t kPresetSeeds[] = {1, 2, 5};

/// The preset world for a horizon and world seed, drawn once per binary.
const PresetWorld& bs340_world(double horizon_s, std::uint64_t seed) {
  static std::map<std::pair<double, std::uint64_t>, PresetWorld> cache;
  auto it = cache.find({horizon_s, seed});
  if (it == cache.end()) {
    const auto sc = rem::trace::make_scenario(
        rem::trace::Route::kBeijingShanghai, 340.0, horizon_s);
    it = cache
             .emplace(std::pair(horizon_s, seed),
                      PresetWorld{sc.deployment.route_len_m,
                                  sc.sim.min_coverage_rsrp_dbm - 10.0,
                                  draw_world(sc, seed)})
             .first;
  }
  return it->second;
}

}  // namespace

TEST(RadioEnv, PositionInHoleMatchesLinearScan) {
  const std::vector<std::vector<rs::HoleSegment>> cases = {
      {},
      {{2000.0, 300.0}},
      tangled_holes(),
      {{500.0, 100.0}, {600.0, 100.0}, {650.0, 10.0}},  // back to back
  };
  rs::Cell cell;
  cell.id = {0, 0, 1825};
  for (const auto& holes : cases) {
    SCOPED_TRACE(std::to_string(holes.size()) + " holes");
    const rs::RadioEnv env({cell}, rs::PropagationConfig{},
                           rem::common::Rng(1), holes);
    const auto reference = [&](double x) {
      for (const auto& h : holes)
        if (x >= h.start_m && x < h.start_m + h.length_m) return true;
      return false;
    };
    // Every metre from before the first hole to past the last, plus each
    // segment's edges and the doubles either side of them.
    std::vector<double> xs;
    for (double x = -200.0; x <= 7000.0; x += 1.0) xs.push_back(x);
    for (const auto& h : holes) {
      for (double edge : {h.start_m, h.start_m + h.length_m}) {
        xs.push_back(edge);
        xs.push_back(std::nextafter(edge, -1e300));
        xs.push_back(std::nextafter(edge, 1e300));
      }
    }
    for (double x : xs)
      ASSERT_EQ(env.position_in_hole(x), reference(x)) << "x=" << x;
  }
}

TEST(RadioEnv, ReachWindowExactOnShuffledDeploymentWithTangledHoles) {
  const rs::RadioEnv env(shuffled_cells(), rs::PropagationConfig{},
                         rem::common::Rng(11), tangled_holes());
  EXPECT_EQ(window_mismatch(env, -1001.0, 16000.0), "");
}

TEST(RadioEnv, ReachWindowHoldsEveryCellWithoutAPathLossBound) {
  // A non-positive exponent leaves distance no say in the mean, so there
  // is no reach to cut at; a NaN position or floor has no bound either.
  const auto cells = shuffled_cells();
  std::vector<std::size_t> window;
  for (double exponent : {0.0, -1.5}) {
    rs::PropagationConfig cfg;
    cfg.pathloss_exponent = exponent;
    const rs::RadioEnv env(cells, cfg, rem::common::Rng(12), tangled_holes());
    env.cells_in_reach(2000.0, -114.0, window);
    EXPECT_EQ(window.size(), cells.size()) << "exponent " << exponent;
    EXPECT_EQ(window_mismatch(env, -501.0, 9000.0), "")
        << "exponent " << exponent;
  }
  const rs::RadioEnv env(cells, rs::PropagationConfig{}, rem::common::Rng(13));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  env.cells_in_reach(nan, -120.0, window);
  EXPECT_EQ(window.size(), cells.size());
  env.cells_in_reach(2000.0, nan, window);
  EXPECT_EQ(window.size(), cells.size());
  // A NaN mean gets past the simulator's `mean < floor` filter, so a cell
  // whose bound is NaN must leave every cell in the window.
  auto odd = cells;
  odd[3].tx_power_dbm = nan;
  const rs::RadioEnv odd_env(odd, rs::PropagationConfig{},
                             rem::common::Rng(14));
  odd_env.cells_in_reach(2000.0, -120.0, window);
  EXPECT_EQ(window.size(), cells.size());
}

TEST(RadioEnv, ReachWindowExactOnLibraryScenarioWorlds) {
  namespace scn = rem::scenario;
  const auto names = scn::list_scenario_names(REM_SCENARIO_DIR);
  EXPECT_EQ(names.size(), 14u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto compiled =
        scn::compile(scn::load_scenario(REM_SCENARIO_DIR, name));
    const auto world = draw_world(compiled.scenario, compiled.seed);
    const double len = compiled.scenario.deployment.route_len_m;
    EXPECT_EQ(window_mismatch(world.env, -1001.0, len + 1000.0), "");
  }
}

TEST(RadioEnv, ReachWindowExactOnBeijingShanghaiPresets) {
  for (double horizon : {100.0, 400.0, 1600.0}) {
    for (std::uint64_t seed : kPresetSeeds) {
      SCOPED_TRACE(std::to_string(horizon) + " s, world seed " +
                   std::to_string(seed));
      const auto& p = bs340_world(horizon, seed);
      EXPECT_EQ(
          window_mismatch(p.world.env, -1001.0, p.route_len_m + 1000.0), "");
    }
  }
}

TEST(RadioEnv, ReachWindowSizeDoesNotGrowWithRouteLength) {
  // Deterministic counts, not timings: the mean window at the policy
  // loop's floor, every 10 m along the route, on the 1600 s preset
  // against the 400 s one (about 4x the route and the cells), and against
  // the cells that actually clear the floor.
  struct Means {
    double window = 0.0;
    double passing = 0.0;
  };
  const auto means = [](const PresetWorld& p) {
    const auto& env = p.world.env;
    std::vector<std::size_t> window;
    Means m;
    double positions = 0.0;
    for (double x = 0.0; x < p.route_len_m; x += 10.0) {
      env.cells_in_reach(x, p.candidate_floor_dbm, window);
      m.window += static_cast<double>(window.size());
      for (std::size_t i = 0; i < env.cells().size(); ++i)
        m.passing += env.mean_rsrp_dbm(i, x) >= p.candidate_floor_dbm;
      positions += 1.0;
    }
    m.window /= positions;
    m.passing /= positions;
    return m;
  };
  for (std::uint64_t seed : kPresetSeeds) {
    SCOPED_TRACE("world seed " + std::to_string(seed));
    const Means mid = means(bs340_world(400.0, seed));
    const Means longest = means(bs340_world(1600.0, seed));
    EXPECT_LE(longest.window, 1.35 * mid.window)
        << "400 s window " << mid.window;
    EXPECT_LE(longest.window, 2.0 * longest.passing)
        << "1600 s passing " << longest.passing;
  }
}

// ---------- Windowed shadowing grids ----------

namespace {

/// The shadowing model radio_env.cpp keeps private, restated for the
/// oracle below: grid step, block size, the per-cell residual's
/// decorrelation, the 1 m reference loss, the hole loss and the bound's
/// rounding margin.
constexpr double kOracleStep_m = 10.0;
constexpr std::size_t kOracleBlock = 100;
constexpr double kOracleCellDecorr_m = 25.0;
constexpr double kOracleRefLossDb = 34.0;
constexpr double kOracleHoleLossDb = 45.0;
constexpr double kOracleMarginDb = 0.01;

/// One full-route AR(1) grid, drawn as RadioEnv draws it.
std::vector<double> oracle_grid(std::size_t steps, double sigma,
                                double decorr, rem::common::Rng& rng) {
  const double rho = std::exp(-kOracleStep_m / decorr);
  const double innov = sigma * std::sqrt(1.0 - rho * rho);
  std::vector<double> grid(steps);
  double x = rng.gaussian(0.0, sigma);
  for (double& node : grid) {
    node = x;
    x = rho * x + rng.gaussian(0.0, innov);
  }
  return grid;
}

/// Largest node of each block, the next block's first node included.
std::vector<double> oracle_block_max(const std::vector<double>& grid) {
  std::vector<double> out;
  for (std::size_t lo = 0; lo < grid.size(); lo += kOracleBlock) {
    const std::size_t hi = std::min(lo + kOracleBlock + 1, grid.size());
    out.push_back(*std::max_element(grid.begin() + static_cast<long>(lo),
                                    grid.begin() + static_cast<long>(hi)));
  }
  return out;
}

/// Redraws `env`'s full shadowing grids from `env_rng` (the stream the
/// environment was built from, in the same order: each site's grid just
/// before its first cell's) and checks the windowed environment against
/// them every 10 m from `from_m` to `to_m`. Each cell's window is derived
/// here from the window rule: the blocks where the reach bound admits the
/// cell at kWindowFloorDbm, as one node span plus the next block's first
/// node, and a site's the union of its cells'. Inside a window
/// mean_rsrp_dbm must equal the full-grid mean bit for bit; outside it
/// must read kOutsideWindowRsrpDbm where the full-grid mean is below
/// kWindowFloorDbm. The kept nodes must add up to stored_grid_nodes().
/// Returns the first mismatch, or "" when none. Finite worlds only.
std::string full_grid_mismatch(const rs::RadioEnv& env,
                               const rs::PropagationConfig& prop,
                               rem::common::Rng env_rng, double from_m,
                               double to_m) {
  const auto& cells = env.cells();
  double track_len_m = 0.0;
  for (const auto& c : cells)
    track_len_m = std::max(track_len_m, c.site_pos_m + 5000.0);
  const auto steps = static_cast<std::size_t>(track_len_m / kOracleStep_m) + 2;
  const std::size_t blocks = (steps - 1) / kOracleBlock + 1;
  const double n_exp = prop.pathloss_exponent;
  const double scale =
      std::pow(10.0, -rs::kWindowFloorDbm / (5.0 * n_exp));
  std::map<int, std::vector<double>> site_grid;
  std::map<int, std::pair<std::size_t, std::size_t>> site_window;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const rs::Cell& c = cells[i];
    const int site = c.id.base_station;
    if (!site_grid.count(site))
      site_grid[site] = oracle_grid(steps, prop.shadowing_sigma_db,
                                    prop.shadowing_decorr_m, env_rng);
    const auto cell_grid = oracle_grid(steps, prop.per_cell_shadow_sigma_db,
                                       kOracleCellDecorr_m, env_rng);
    const auto& sgrid = site_grid[site];
    // The window rule.
    const double freq_db = 20.0 * std::log10(c.carrier_hz / 2.0e9);
    const double budget_db =
        c.tx_power_dbm - kOracleRefLossDb - freq_db + kOracleMarginDb;
    const auto site_max = oracle_block_max(sgrid);
    const auto cell_max = oracle_block_max(cell_grid);
    std::size_t first = blocks, last = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const double r2 = std::pow(
          10.0, (budget_db + site_max[b] + cell_max[b]) / (5.0 * n_exp));
      // Block b files the positions whose node is in it, one grid step
      // either side.
      const double lo = b == 0 ? -1e300
                               : static_cast<double>(b * kOracleBlock - 1) *
                                     kOracleStep_m;
      const double hi =
          b + 1 == blocks ? 1e300
                          : static_cast<double>((b + 1) * kOracleBlock + 1) *
                                kOracleStep_m;
      const double gap = std::max({lo - c.site_pos_m, c.site_pos_m - hi, 0.0});
      if (gap * gap + c.site_offset_m * c.site_offset_m <= r2 * scale) {
        first = std::min(first, b);
        last = b + 1;
      }
    }
    const std::size_t w_lo = first * kOracleBlock;
    const std::size_t w_hi = std::min(last * kOracleBlock + 1, steps);
    if (w_lo < w_hi) {
      kept += w_hi - w_lo;
      auto [it, inserted] = site_window.try_emplace(site, w_lo, w_hi);
      it->second = {std::min(it->second.first, w_lo),
                    std::max(it->second.second, w_hi)};
    }
    // Every 10 m: bit for bit inside, below the floor outside.
    const auto count = static_cast<long>((to_m - from_m) / 10.0);
    for (long k = 0; k <= count; ++k) {
      const double x = from_m + 10.0 * static_cast<double>(k);
      const double f = std::clamp(x / kOracleStep_m, 0.0,
                                  static_cast<double>(steps - 1));
      const auto i0 = static_cast<std::size_t>(f);
      const std::size_t i1 = std::min(i0 + 1, steps - 1);
      const double frac = f - static_cast<double>(i0);
      const double dx = x - c.site_pos_m;
      const double d = std::max(
          std::sqrt(dx * dx + c.site_offset_m * c.site_offset_m), 1.0);
      double pl = kOracleRefLossDb + 10.0 * n_exp * std::log10(d) + freq_db;
      if (env.position_in_hole(x)) pl += kOracleHoleLossDb;
      const double full =
          c.tx_power_dbm - pl +
          ((sgrid[i0] * (1.0 - frac) + sgrid[i1] * frac) +
           (cell_grid[i0] * (1.0 - frac) + cell_grid[i1] * frac));
      const double got = env.mean_rsrp_dbm(i, x);
      const bool inside = w_lo <= i0 && i1 < w_hi;
      if (inside ? got == full
                 : got == rs::kOutsideWindowRsrpDbm &&
                       full < rs::kWindowFloorDbm)
        continue;
      std::ostringstream at;
      at << "cell " << i << " x=" << x << ": full " << full << ", got "
         << got << (inside ? " inside" : " outside") << " its window";
      return at.str();
    }
  }
  for (const auto& [site, w] : site_window) kept += w.second - w.first;
  if (kept != env.stored_grid_nodes())
    return "stored_grid_nodes() " + std::to_string(env.stored_grid_nodes()) +
           " != " + std::to_string(kept) + " by the window rule";
  return "";
}

/// The stream make_world hands the RadioEnv for a scenario and seed.
rem::common::Rng env_stream(const rem::trace::Scenario& sc,
                            std::uint64_t seed) {
  rem::common::Rng rng(seed);
  rs::make_rail_deployment(sc.deployment, rng);
  rs::make_hole_segments(sc.deployment, rng);
  return rng.fork();
}

/// Nodes of every site and cell grid over the whole route.
double full_grid_nodes(const rs::RadioEnv& env) {
  std::set<int> sites;
  double track_len_m = 0.0;
  for (const auto& c : env.cells()) {
    sites.insert(c.id.base_station);
    track_len_m = std::max(track_len_m, c.site_pos_m + 5000.0);
  }
  const auto steps = static_cast<std::size_t>(track_len_m / kOracleStep_m) + 2;
  return static_cast<double>((sites.size() + env.cells().size()) * steps);
}

}  // namespace

TEST(RadioEnv, WindowedGridsMatchFullGridsOnLibraryScenarioWorlds) {
  namespace scn = rem::scenario;
  for (const auto& name : scn::list_scenario_names(REM_SCENARIO_DIR)) {
    SCOPED_TRACE(name);
    const auto compiled =
        scn::compile(scn::load_scenario(REM_SCENARIO_DIR, name));
    const auto& sc = compiled.scenario;
    const auto world = draw_world(sc, compiled.seed);
    EXPECT_EQ(full_grid_mismatch(world.env, sc.propagation,
                                 env_stream(sc, compiled.seed), -1001.0,
                                 sc.deployment.route_len_m + 1000.0),
              "");
  }
}

TEST(RadioEnv, WindowedGridsMatchFullGridsOnBeijingShanghaiPresets) {
  for (double horizon : {400.0, 1600.0}) {
    const auto sc = rem::trace::make_scenario(
        rem::trace::Route::kBeijingShanghai, 340.0, horizon);
    for (std::uint64_t seed : kPresetSeeds) {
      SCOPED_TRACE(std::to_string(horizon) + " s, world seed " +
                   std::to_string(seed));
      const auto& p = bs340_world(horizon, seed);
      EXPECT_EQ(full_grid_mismatch(p.world.env, sc.propagation,
                                   env_stream(sc, seed), -1001.0,
                                   p.route_len_m + 1000.0),
                "");
    }
  }
}

TEST(RadioEnv, StoredGridsStayFlatPerRouteKm) {
  // Deterministic counts: the kept grid nodes per route km on the 3200 s
  // preset (about 304 km) against the 1600 s one (about 153 km), and the
  // 1600 s preset's kept share of the full route-length grids.
  for (std::uint64_t seed : kPresetSeeds) {
    SCOPED_TRACE("world seed " + std::to_string(seed));
    const auto& mid = bs340_world(1600.0, seed);
    const auto& longest = bs340_world(3200.0, seed);
    const auto per_km = [](const PresetWorld& p) {
      return static_cast<double>(p.world.env.stored_grid_nodes()) /
             (p.route_len_m / 1000.0);
    };
    EXPECT_LE(per_km(longest), 1.25 * per_km(mid))
        << "1600 s: " << per_km(mid) << " nodes/km";
    const double share =
        static_cast<double>(mid.world.env.stored_grid_nodes()) /
        full_grid_nodes(mid.world.env);
    EXPECT_LE(share, 0.35);
  }
}

TEST(RadioEnv, RejectsFloorsBelowTheWindowFloor) {
  const auto env = small_env();
  std::vector<std::size_t> window;
  const std::vector<char> mask(env.cells().size(), 0);
  const double below = std::nextafter(rs::kWindowFloorDbm, -1e300);
  for (double floor : {below, -140.0,
                       -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("floor " + std::to_string(floor));
    EXPECT_THROW(env.cells_in_reach(2000.0, floor, window),
                 std::invalid_argument);
    EXPECT_THROW(env.best_cell(2000.0, floor), std::invalid_argument);
    EXPECT_THROW(env.best_cell(2000.0, floor, mask), std::invalid_argument);
  }
  env.cells_in_reach(2000.0, rs::kWindowFloorDbm, window);
  EXPECT_FALSE(window.empty());
  EXPECT_GE(env.best_cell(2000.0, rs::kWindowFloorDbm), 0);
}

TEST(RadioEnv, NanPositionReadsBelowEveryFloor) {
  const auto env = small_env();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < env.cells().size(); ++i)
    EXPECT_EQ(env.mean_rsrp_dbm(i, nan), rs::kOutsideWindowRsrpDbm);
  EXPECT_EQ(env.best_cell(nan, rs::kWindowFloorDbm), -1);
}

// ---------- Simulator entry points ----------

namespace {
/// A manager that never decides: enough to drive the tick loop.
class IdleManager final : public rs::MobilityManager {
 public:
  std::string name() const override { return "idle"; }
  rem::phy::Waveform waveform() const override {
    return rem::phy::Waveform::kOFDM;
  }
  std::optional<rs::HandoverDecision> update(
      double, const rs::ServingState&,
      const std::vector<rs::Observation>&) override {
    return std::nullopt;
  }
  std::set<std::size_t> visible_cells() const override { return {}; }
  void on_serving_changed(double, std::size_t) override {}
};
}  // namespace

TEST(Simulator, RejectsNonPositiveTickAtBothEntryPoints) {
  // A zero step never reaches the horizon and a negative one walks
  // backwards, so both entry points must refuse them up front.
  const auto env = small_env();
  const rem::phy::LogisticBlerModel bler;
  for (double tick : {0.0, -0.01}) {
    SCOPED_TRACE("tick_s=" + std::to_string(tick));
    rs::SimConfig cfg;
    cfg.duration_s = 1.0;
    cfg.tick_s = tick;
    IdleManager manager;
    rs::Simulator single(env, cfg, bler, rem::common::Rng(1));
    EXPECT_THROW(single.run(manager), std::invalid_argument);
    rs::Simulator fleet(env, cfg, bler, rem::common::Rng(1));
    EXPECT_THROW(fleet.run_fleet([](int) {
      return std::make_unique<IdleManager>();
    }),
                 std::invalid_argument);
  }
  // A positive step still runs the full horizon.
  rs::SimConfig cfg;
  cfg.duration_s = 1.0;
  IdleManager manager;
  rs::Simulator ok(env, cfg, bler, rem::common::Rng(1));
  EXPECT_EQ(ok.run(manager).sim_time_s, 1.0);
}

namespace {
/// run_fleet throws std::invalid_argument for `cfg` on `env`.
void expect_fleet_rejects(const rs::RadioEnv& env, const rs::SimConfig& cfg) {
  const rem::phy::LogisticBlerModel bler;
  rs::Simulator fleet(env, cfg, bler, rem::common::Rng(1));
  EXPECT_THROW(
      fleet.run_fleet([](int) { return std::make_unique<IdleManager>(); }),
      std::invalid_argument);
}

/// Both entry points throw std::invalid_argument for `cfg` on `env`.
void expect_both_entry_points_reject(const rs::RadioEnv& env,
                                     const rs::SimConfig& cfg) {
  const rem::phy::LogisticBlerModel bler;
  IdleManager manager;
  rs::Simulator single(env, cfg, bler, rem::common::Rng(1));
  EXPECT_THROW(single.run(manager), std::invalid_argument);
  expect_fleet_rejects(env, cfg);
}
}  // namespace

TEST(Simulator, RejectsAnEnvironmentWithoutCells) {
  // The attach fallback once read cells()[0] of an empty deployment.
  const rs::RadioEnv empty({}, rs::PropagationConfig{}, rem::common::Rng(1));
  rs::SimConfig cfg;
  cfg.duration_s = 1.0;
  expect_both_entry_points_reject(empty, cfg);
}

TEST(Simulator, RejectsNonFiniteOrNegativeSpeeds) {
  const auto env = small_env();
  const double inf = std::numeric_limits<double>::infinity();
  for (double speed :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, -300.0}) {
    SCOPED_TRACE("speed_kmh=" + std::to_string(speed));
    rs::SimConfig cfg;
    cfg.duration_s = 1.0;
    cfg.speed_kmh = speed;
    expect_both_entry_points_reject(env, cfg);
  }
}

TEST(Simulator, RejectsACandidateFloorBelowTheWindowFloor) {
  // The policy loop asks for cells down to 10 dB below the coverage floor.
  const auto env = small_env();
  for (double floor : {-120.5, -200.0,
                       std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("min_coverage_rsrp_dbm=" + std::to_string(floor));
    rs::SimConfig cfg;
    cfg.duration_s = 1.0;
    cfg.min_coverage_rsrp_dbm = floor;
    expect_both_entry_points_reject(env, cfg);
  }
  rs::SimConfig cfg;
  cfg.duration_s = 1.0;
  cfg.speed_kmh = 0.0;
  cfg.min_coverage_rsrp_dbm = rs::kWindowFloorDbm + 10.0;
  IdleManager manager;
  const rem::phy::LogisticBlerModel bler;
  rs::Simulator ok(env, cfg, bler, rem::common::Rng(1));
  EXPECT_EQ(ok.run(manager).sim_time_s, 1.0);
}

TEST(Simulator, RejectsNonFiniteFleetSpeedsAndSpread) {
  const auto env = small_env();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto fleet_cfg = [] {
    rs::SimConfig cfg;
    cfg.duration_s = 1.0;
    cfg.fleet_size = 2;
    return cfg;
  };
  for (auto [lo, hi] : {std::pair{nan, 300.0}, std::pair{200.0, nan},
                        std::pair{200.0, inf}, std::pair{inf, inf}}) {
    SCOPED_TRACE("band [" + std::to_string(lo) + ", " + std::to_string(hi) +
                 "]");
    auto cfg = fleet_cfg();
    cfg.fleet.speed_min_kmh = lo;
    cfg.fleet.speed_max_kmh = hi;
    expect_fleet_rejects(env, cfg);
    auto classes = fleet_cfg();
    classes.fleet.classes = {{"a", 1, 100.0, 200.0}, {"b", 1, lo, hi}};
    expect_fleet_rejects(env, classes);
  }
  for (double spread : {nan, inf, -1.0}) {
    SCOPED_TRACE("start_spread_m=" + std::to_string(spread));
    auto cfg = fleet_cfg();
    cfg.fleet.start_spread_m = spread;
    expect_fleet_rejects(env, cfg);
  }
}

TEST(StatsTable, MetricNamesAreUnique) {
  // Two rows sharing a metric would silently add into one counter.
  std::set<std::string> metrics;
  rs::for_each_stat([&](const rs::StatField& f, auto) {
    if (*f.metric != '\0') {
      EXPECT_TRUE(metrics.insert(f.metric).second) << f.metric;
    }
  });
  EXPECT_FALSE(metrics.empty());
}

// ---------- TCP model ----------

TEST(Tcp, StallAtLeastOutage) {
  rs::TcpConfig cfg;
  for (double outage : {0.5, 1.0, 3.0, 8.0}) {
    const double stall = rs::tcp_stall_for_outage(outage, cfg, 0.3);
    EXPECT_GE(stall, outage);
  }
}

TEST(Tcp, BackoffAmplifiesLongOutages) {
  rs::TcpConfig cfg;
  // Fig. 9b: a ~2.3 s radio outage became a ~6.5 s stall via RTO backoff.
  const double stall = rs::tcp_stall_for_outage(2.3, cfg, 0.0);
  EXPECT_GT(stall, 2.3 * 1.3);
  // Short outages are barely amplified.
  const double short_stall = rs::tcp_stall_for_outage(0.3, cfg, 0.0);
  EXPECT_LT(short_stall, 0.9);
}

TEST(Tcp, StallMonotoneInOutage) {
  rs::TcpConfig cfg;
  double prev = 0.0;
  for (double outage = 0.2; outage < 20.0; outage += 0.2) {
    const double stall = rs::tcp_stall_for_outage(outage, cfg, 0.5);
    EXPECT_GE(stall, prev - 1e-9);
    prev = stall;
  }
}

TEST(Tcp, VectorApiValidatesSizes) {
  EXPECT_THROW(rs::tcp_stalls({1.0, 2.0}, {0.5}), std::invalid_argument);
  const auto stalls = rs::tcp_stalls({1.0, 2.0}, {0.1, 0.9});
  EXPECT_EQ(stalls.size(), 2u);
}

TEST(Tcp, RtoCappedAtMax) {
  rs::TcpConfig cfg;
  cfg.max_rto_s = 4.0;
  // Stall exceeds outage by at most max_rto (the last backoff interval).
  const double stall = rs::tcp_stall_for_outage(60.0, cfg, 0.0);
  EXPECT_LE(stall - 60.0, 4.0 + 1e-9);
}
