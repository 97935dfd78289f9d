#include "sim/radio_env.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace rem::sim {
namespace {

constexpr double kRefLossDb = 34.0;  ///< loss at 1 m (Hata-like anchor)
/// Decorrelation distance (m) of each cell's residual shadowing.
constexpr double kPerCellShadowDecorr_m = 25.0;
/// Extra loss inside a coverage-hole segment. Holes only ever add loss,
/// so the reach bound can leave them out.
constexpr double kHoleExtraLossDb = 45.0;
static_assert(kHoleExtraLossDb >= 0.0, "a coverage hole cannot add gain");
/// Corridor-layer (primary channel) cell bandwidth.
constexpr double kPrimaryBandwidthHz = 20e6;

/// Draws one AR(1) shadowing grid of `steps` nodes into `grid`, reusing
/// its storage. While drawing it, records the largest value of each
/// `block_steps`-step block into `block_max`; a block also takes the next
/// block's first node, which interpolation reads from the block's last
/// step.
///
/// The grid's steps + 1 normals (the first node's, then one innovation per
/// step, the last unused) are drawn in one batch into the grid itself and
/// the recursion overwrites them in place: node i is written only after
/// normal i + 1 is read. `z * sigma + 0.0` is gaussian(0.0, sigma)'s value,
/// so the grid is the one per-call draws give.
void ar1_grid(std::size_t steps, double sigma, double decorr, double step_m,
              std::size_t block_steps, common::Rng& rng,
              std::vector<double>& grid, std::vector<double>& block_max) {
  const double rho = std::exp(-step_m / decorr);
  const double innov = sigma * std::sqrt(1.0 - rho * rho);
  grid.resize(steps + 1);
  rng.normals(grid);
  block_max.clear();
  double x = grid[0] * sigma + 0.0;
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0, next = block_steps; i < steps; ++i) {
    const double z = grid[i + 1];
    grid[i] = x;
    m = std::max(m, x);
    if (i == next) {  // last node of this block, first of the next
      block_max.push_back(m);
      m = x;
      next += block_steps;
    }
    x = rho * x + (z * innov + 0.0);
  }
  grid.pop_back();
  block_max.push_back(m);
  // std::max passes over a NaN, but the recursion carries one to the last
  // node; a NaN maximum there switches the reach bound off.
  if (std::isnan(grid.back())) block_max.back() = grid.back();
}

void require_window_floor(double floor_dbm) {
  if (floor_dbm < kWindowFloorDbm)
    throw std::invalid_argument(
        "RadioEnv: floor " + std::to_string(floor_dbm) +
        " dBm is below kWindowFloorDbm (" + std::to_string(kWindowFloorDbm) +
        " dBm), the lowest floor the shadowing windows cover");
}

}  // namespace

RadioEnv::RadioEnv(std::vector<Cell> cells, PropagationConfig cfg,
                   common::Rng rng, std::vector<HoleSegment> holes)
    : cells_(std::move(cells)), cfg_(cfg) {
  // Hole index. A segment whose start or end is NaN contains no position.
  std::vector<std::pair<double, double>> spans;  // (start, end)
  for (const auto& h : holes) {
    const double end = h.start_m + h.length_m;
    if (!std::isnan(h.start_m) && !std::isnan(end))
      spans.push_back({h.start_m, end});
  }
  std::sort(spans.begin(), spans.end());
  for (const auto& [start, end] : spans) {
    hole_starts_.push_back(start);
    hole_end_max_.push_back(
        hole_end_max_.empty() ? end : std::max(hole_end_max_.back(), end));
  }

  const std::size_t n = cells_.size();
  bool finite_geometry = true;
  for (const auto& c : cells_) {
    track_len_m_ = std::max(track_len_m_, c.site_pos_m + 5000.0);
    freq_loss_db_.push_back(20.0 * std::log10(c.carrier_hz / 2.0e9));
    finite_geometry = finite_geometry && std::isfinite(c.site_pos_m) &&
                      std::isfinite(c.site_offset_m);
  }
  steps_ = static_cast<std::size_t>(track_len_m_ / kShadowStep_m) + 2;
  const std::size_t blocks = (steps_ - 1) / kBlockSteps + 1;

  // Reach bound setup: cells in track order, and the per-cell part of the
  // bound.
  const double exponent = cfg_.pathloss_exponent;
  bounded_ = finite_geometry && std::isfinite(exponent) && exponent > 0.0;
  by_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) by_pos_[i] = i;
  if (bounded_) {
    std::sort(by_pos_.begin(), by_pos_.end(),
              [&](std::size_t a, std::size_t b) {
                return std::pair(cells_[a].site_pos_m, a) <
                       std::pair(cells_[b].site_pos_m, b);
              });
    reach2_.assign(blocks * n, 0.0);
    block_reach2_.assign(blocks, 0.0);
  }
  std::vector<std::size_t> rank(n);
  for (std::size_t k = 0; k < n; ++k) {
    rank[by_pos_[k]] = k;
    const Cell& c = cells_[by_pos_[k]];
    sorted_pos_.push_back(c.site_pos_m);
    sorted_off2_.push_back(c.site_offset_m * c.site_offset_m);
  }
  // The bound's scale at kWindowFloorDbm, computed as visit_reach does.
  const double window_scale =
      std::pow(10.0, -kWindowFloorDbm / (5.0 * exponent));
  // Squared distance from `site_m` to the positions visit_reach files
  // under block b (position clamped to the grid, node / kBlockSteps),
  // widened by one grid step either side for the rounding of the node.
  const auto block_gap2 = [&](std::size_t b, double site_m) {
    const double inf = std::numeric_limits<double>::infinity();
    const double lo =
        b == 0 ? -inf
               : static_cast<double>(b * kBlockSteps - 1) * kShadowStep_m;
    const double hi =
        b + 1 == blocks
            ? inf
            : static_cast<double>((b + 1) * kBlockSteps + 1) * kShadowStep_m;
    const double gap =
        site_m < lo ? lo - site_m : (site_m > hi ? site_m - hi : 0.0);
    return gap * gap;
  };

  // Site grids in order of their first cell, and each one's last cell.
  std::map<int, std::size_t> site_grid_index;
  std::vector<std::size_t> site_last_cell;
  cell_site_grid_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, inserted] = site_grid_index.try_emplace(
        cells_[i].id.base_station, site_last_cell.size());
    if (inserted) site_last_cell.emplace_back();
    cell_site_grid_[i] = it->second;
    site_last_cell[it->second] = i;
  }
  const std::size_t sites = site_last_cell.size();

  // One shared shadowing process per physical site, plus a small
  // frequency-dependent residual per cell. Co-sited cells thus see nearly
  // identical large-scale dynamics — the physical basis of cross-band
  // estimation (§3.1's shared multipath).
  //
  // Every grid is drawn over the whole route, each site's just before its
  // first cell's, so the draws never depend on the windows. A cell grid is
  // drawn into `scratch` and only its window kept. A site grid stays whole
  // until its last cell has been drawn, is then cut to the union of its
  // cells' windows, and its buffer goes back to `spare` for the next site:
  // freeing route-length buffers between the kept windows fragments the
  // heap, which doubled peak RSS at 153 km and quintupled it at 607 km.
  site_shadow_grids_.resize(sites);
  cell_shadow_grids_.resize(n);
  std::vector<std::vector<double>> site_full(sites), spare;
  std::vector<std::vector<double>> site_block_max(sites);
  std::vector<std::size_t> site_lo(sites, steps_), site_hi(sites, 0);
  std::vector<double> scratch, cell_block_max;
  const auto keep = [](const std::vector<double>& full, std::size_t lo,
                       std::size_t hi) {
    Grid g;
    if (lo >= hi) return g;
    g.first = lo;
    g.nodes.assign(full.begin() + static_cast<std::ptrdiff_t>(lo),
                   full.begin() + static_cast<std::ptrdiff_t>(hi));
    return g;
  };
  for (std::size_t i = 0, drawn_sites = 0; i < n; ++i) {
    const std::size_t g = cell_site_grid_[i];
    if (g == drawn_sites) {
      ++drawn_sites;
      if (!spare.empty()) {
        site_full[g] = std::move(spare.back());
        spare.pop_back();
      }
      ar1_grid(steps_, cfg_.shadowing_sigma_db, cfg_.shadowing_decorr_m,
               kShadowStep_m, kBlockSteps, rng, site_full[g],
               site_block_max[g]);
    }
    ar1_grid(steps_, cfg_.per_cell_shadow_sigma_db, kPerCellShadowDecorr_m,
             kShadowStep_m, kBlockSteps, rng, scratch, cell_block_max);
    // The cell's window in blocks, [lo_block, hi_block): the whole route
    // unless every block's bound is finite.
    std::size_t lo_block = 0, hi_block = blocks;
    if (bounded_) {
      const Cell& c = cells_[i];
      const double budget_db =
          c.tx_power_dbm - kRefLossDb - freq_loss_db_[i] + kReachMarginDb;
      const auto& site_max = site_block_max[g];
      const double off2 = sorted_off2_[rank[i]];
      bool finite = true;
      std::size_t first = blocks, last = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        const double r2 = std::pow(
            10.0, (budget_db + site_max[b] + cell_block_max[b]) /
                      (5.0 * exponent));
        bounded_ = bounded_ && !std::isnan(r2);
        reach2_[b * n + rank[i]] = r2;
        block_reach2_[b] = std::max(block_reach2_[b], r2);
        finite = finite && std::isfinite(r2);
        if (!(block_gap2(b, c.site_pos_m) + off2 > r2 * window_scale)) {
          first = std::min(first, b);
          last = b + 1;
        }
      }
      if (finite) {
        lo_block = first;
        hi_block = last;
      }
    }
    // A block's nodes plus the next block's first one.
    const std::size_t lo = lo_block * kBlockSteps;
    const std::size_t hi = std::min(hi_block * kBlockSteps + 1, steps_);
    cell_shadow_grids_[i] = keep(scratch, lo, hi);
    if (lo < hi) {
      site_lo[g] = std::min(site_lo[g], lo);
      site_hi[g] = std::max(site_hi[g], hi);
    }
    if (i == site_last_cell[g]) {
      site_shadow_grids_[g] = keep(site_full[g], site_lo[g], site_hi[g]);
      spare.push_back(std::move(site_full[g]));
    }
  }
}

bool RadioEnv::position_in_hole(double track_pos_m) const {
  const auto k = std::upper_bound(hole_starts_.begin(), hole_starts_.end(),
                                  track_pos_m) -
                 hole_starts_.begin();
  return k > 0 && track_pos_m < hole_end_max_[static_cast<std::size_t>(k - 1)];
}

std::size_t RadioEnv::stored_grid_nodes() const {
  std::size_t total = 0;
  for (const auto* grids : {&site_shadow_grids_, &cell_shadow_grids_})
    for (const Grid& g : *grids) total += g.nodes.size();
  return total;
}

double RadioEnv::mean_rsrp_dbm(std::size_t cell_idx, double track_pos_m,
                               bool in_hole) const {
  // The grid nodes this position interpolates between. The cell's window
  // must hold both (its site's window holds the cell's).
  const double f = std::clamp(track_pos_m / kShadowStep_m, 0.0,
                              static_cast<double>(steps_ - 1));
  if (std::isnan(f)) return kOutsideWindowRsrpDbm;
  const auto i0 = static_cast<std::size_t>(f);
  const std::size_t i1 = std::min(i0 + 1, steps_ - 1);
  const Grid& cell_grid = cell_shadow_grids_[cell_idx];
  if (i0 < cell_grid.first || i1 - cell_grid.first >= cell_grid.nodes.size())
    return kOutsideWindowRsrpDbm;
  const double frac = f - static_cast<double>(i0);
  const Cell& c = cells_[cell_idx];
  const double dx = track_pos_m - c.site_pos_m;
  const double d = std::max(
      std::sqrt(dx * dx + c.site_offset_m * c.site_offset_m), 1.0);
  // Log-distance with a mild frequency term (higher carriers lose more).
  double pl = kRefLossDb + 10.0 * cfg_.pathloss_exponent * std::log10(d) +
              freq_loss_db_[cell_idx];
  if (in_hole) pl += kHoleExtraLossDb;
  // Correlated shadowing: the site's process plus the cell's residual.
  const double shadow =
      sample_grid(site_shadow_grids_[cell_site_grid_[cell_idx]], i0, i1,
                  frac) +
      sample_grid(cell_grid, i0, i1, frac);
  return c.tx_power_dbm - pl + shadow;
}

template <typename Visit>
void RadioEnv::visit_reach(double track_pos_m, double floor_dbm,
                           Visit&& visit) const {
  require_window_floor(floor_dbm);
  const double scale =
      std::pow(10.0, -floor_dbm / (5.0 * cfg_.pathloss_exponent));
  if (!bounded_ || !std::isfinite(track_pos_m) || !std::isfinite(scale) ||
      !(scale > 0.0)) {
    for (std::size_t i = 0; i < cells_.size(); ++i) visit(i);
    return;
  }
  if (cells_.empty()) return;
  // The block whose nodes mean_rsrp_dbm interpolates at this position.
  const auto i0 = static_cast<std::size_t>(std::clamp(
      track_pos_m / kShadowStep_m, 0.0, static_cast<double>(steps_ - 1)));
  const std::size_t block = i0 / kBlockSteps;
  // No cell farther along the track than the block's widest reach can
  // clear the floor; inside that span each cell checks its own bound.
  const double reach = std::sqrt(block_reach2_[block] * scale);
  const auto lo = std::lower_bound(sorted_pos_.begin(), sorted_pos_.end(),
                                   track_pos_m - reach);
  const auto hi =
      std::upper_bound(lo, sorted_pos_.end(), track_pos_m + reach);
  const double* reach2 = reach2_.data() + block * cells_.size();
  for (auto k = static_cast<std::size_t>(lo - sorted_pos_.begin());
       k < static_cast<std::size_t>(hi - sorted_pos_.begin()); ++k) {
    const double dx = track_pos_m - sorted_pos_[k];
    if (dx * dx + sorted_off2_[k] <= reach2[k] * scale) visit(by_pos_[k]);
  }
}

void RadioEnv::cells_in_reach(double track_pos_m, double floor_dbm,
                              std::vector<std::size_t>& out) const {
  out.clear();
  visit_reach(track_pos_m, floor_dbm,
              [&](std::size_t i) { out.push_back(i); });
  // Rail deployments number cells along the track, so track order
  // already is index order there.
  if (!std::is_sorted(out.begin(), out.end()))
    std::sort(out.begin(), out.end());
}

int RadioEnv::best_cell(double track_pos_m, double min_rsrp_dbm,
                        const std::vector<char>& excluded) const {
  const bool in_hole = position_in_hole(track_pos_m);
  int best = -1;
  double best_rsrp = min_rsrp_dbm;
  visit_reach(track_pos_m, min_rsrp_dbm, [&](std::size_t i) {
    if (i < excluded.size() && excluded[i]) return;
    const double r = mean_rsrp_dbm(i, track_pos_m, in_hole);
    // Track order may reach a tied cell after a higher index: keep the
    // lowest index among equals, as an ascending scan would.
    const int idx = static_cast<int>(i);
    if (r > best_rsrp || (r == best_rsrp && best >= 0 && idx < best)) {
      best_rsrp = r;
      best = idx;
    }
  });
  return best;
}

std::vector<Cell> make_rail_deployment(const DeploymentConfig& cfg,
                                       common::Rng& rng) {
  std::vector<Cell> cells;
  int next_cell_id = 0;
  int next_site_id = 0;
  double pos = cfg.site_spacing_mean_m / 2.0;
  while (pos < cfg.route_len_m) {
    const int site = next_site_id++;
    const double offset =
        rng.uniform(cfg.site_offset_min_m, cfg.site_offset_max_m);
    // The rail corridor is covered by a dedicated layer on the first
    // channel (intra-frequency A3 dominates handovers, as in the HSR
    // datasets); extra co-located cells use the other carriers. A few
    // sites lack the corridor layer entirely — the cells legacy
    // multi-stage policies tend to miss.
    const std::size_t primary =
        (cfg.channels.size() > 1 && rng.bernoulli(cfg.primary_missing_prob))
            ? 1 + static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(cfg.channels.size()) - 2))
            : 0;

    Cell c;
    c.id = {next_cell_id++, site, cfg.channels[primary].first};
    c.site_pos_m = pos;
    c.site_offset_m = offset;
    c.carrier_hz = cfg.channels[primary].second;
    c.tx_power_dbm = cfg.tx_power_dbm;
    c.bandwidth_hz = primary == 0 ? kPrimaryBandwidthHz
                                  : cfg.secondary_bandwidths_hz[
                                        static_cast<std::size_t>(
                                            rng.uniform_int(
                                                0,
                                                static_cast<std::int64_t>(
                                                    cfg.secondary_bandwidths_hz
                                                        .size()) -
                                                    1))];
    cells.push_back(c);

    if (cfg.channels.size() > 1 && primary == 0 &&
        rng.bernoulli(cfg.colocated_second_cell_prob)) {
      std::size_t secondary = primary;
      while (secondary == primary) {
        secondary = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cfg.channels.size()) - 1));
      }
      Cell c2 = c;
      c2.id = {next_cell_id++, site, cfg.channels[secondary].first};
      c2.carrier_hz = cfg.channels[secondary].second;
      c2.bandwidth_hz = cfg.secondary_bandwidths_hz[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(
                                 cfg.secondary_bandwidths_hz.size()) -
                                 1))];
      cells.push_back(c2);
    }
    pos += cfg.site_spacing_mean_m +
           rng.uniform(-cfg.site_spacing_jitter_m, cfg.site_spacing_jitter_m);
  }
  return cells;
}

std::vector<HoleSegment> make_hole_segments(const DeploymentConfig& cfg,
                                            common::Rng& rng) {
  std::vector<HoleSegment> holes;
  const double km = cfg.route_len_m / 1000.0;
  const int count = rng.poisson(cfg.holes_per_km * km);
  for (int i = 0; i < count; ++i) {
    HoleSegment h;
    h.start_m = rng.uniform(0.0, cfg.route_len_m);
    h.length_m = rng.uniform(cfg.hole_len_min_m, cfg.hole_len_max_m);
    holes.push_back(h);
  }
  return holes;
}

}  // namespace rem::sim
