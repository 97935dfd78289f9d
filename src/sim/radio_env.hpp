// Radio environment along a rail line: cell deployment, log-distance path
// loss, spatially correlated shadowing, and small-scale fading. The
// environment answers "what does cell c look like from track position x at
// time t" with both the instantaneous metric legacy management sees (RSRP
// with fast fading) and the stable delay-Doppler SNR REM sees.
#pragma once

#include "common/rng.hpp"
#include "mobility/cell.hpp"

#include <vector>

namespace rem::sim {

/// One deployed cell. Cells sharing `site` share the physical propagation
/// paths (the cross-band estimation opportunity: 53.4% of cells in the HSR
/// dataset are co-located with another).
struct Cell {
  mobility::CellId id;
  double site_pos_m = 0.0;      ///< position along the track
  double site_offset_m = 150.0; ///< lateral distance from the rails
  double carrier_hz = 2.0e9;
  double bandwidth_hz = 20e6;
  double tx_power_dbm = 46.0;
};

/// A stretch of track with no usable coverage (tunnel/cutting): every
/// cell's signal is attenuated below the connectable floor inside it.
struct HoleSegment {
  double start_m = 0.0;
  double length_m = 0.0;
};

/// Thermal noise over 20 MHz plus the receiver noise figure (dBm): the
/// floor every RSRP is turned into an SNR against.
constexpr double kNoiseFloorDbm = -101.0;

/// The lowest floor a RadioEnv answers for (dBm): the policy loop's
/// candidate floor at the default coverage floor, and the lowest any
/// caller passes. Each shadowing grid is kept only over its window, the
/// stretch where its cell's mean could reach this floor, so
/// `cells_in_reach` and `best_cell` reject a lower one.
constexpr double kWindowFloorDbm = -130.0;
/// What `mean_rsrp_dbm` returns outside a cell's window (and at a NaN
/// position): below every floor a caller may pass. The full-grid mean
/// there is below `kWindowFloorDbm` as well.
constexpr double kOutsideWindowRsrpDbm = -200.0;
static_assert(kOutsideWindowRsrpDbm < kWindowFloorDbm,
              "a read outside a window must fail every floor");

struct PropagationConfig {
  double pathloss_exponent = 3.5;
  double shadowing_sigma_db = 3.5;
  double shadowing_decorr_m = 80.0; ///< Gudmundson decorrelation distance
  /// Co-sited cells share the site's shadowing (same physical paths);
  /// each cell adds only this small frequency-dependent residual.
  double per_cell_shadow_sigma_db = 1.0;
  /// Residual fast-fading noise on the L1-filtered instantaneous metric
  /// (std dev, dB). Legacy RSRP feedback rides this; the delay-Doppler
  /// SNR averages it out (Fig. 11), leaving only `dd_residual_sigma_db`.
  double fading_sigma_db = 2.0;
  double dd_residual_sigma_db = 0.75;
};

/// A deployment plus per-cell correlated shadowing processes.
class RadioEnv {
 public:
  RadioEnv(std::vector<Cell> cells, PropagationConfig cfg,
           common::Rng rng, std::vector<HoleSegment> holes = {});

  const std::vector<Cell>& cells() const { return cells_; }

  /// Deterministic mean RSRP (path loss + shadowing, no fast fading).
  /// Outside the cell's window (or at a NaN position) it is
  /// `kOutsideWindowRsrpDbm`; the full-grid mean there is below
  /// `kWindowFloorDbm` too, so every comparison with a floor at or above
  /// it comes out the same.
  double mean_rsrp_dbm(std::size_t cell_idx, double track_pos_m) const {
    return mean_rsrp_dbm(cell_idx, track_pos_m, position_in_hole(track_pos_m));
  }

  /// The same mean with the coverage-hole test already made for this
  /// position (`in_hole == position_in_hole(track_pos_m)`): a caller that
  /// evaluates many cells at one position tests the holes once.
  double mean_rsrp_dbm(std::size_t cell_idx, double track_pos_m,
                       bool in_hole) const;

  /// Instantaneous RSRP with fast fading — what legacy feedback measures.
  double instant_rsrp_dbm(std::size_t cell_idx, double track_pos_m,
                          common::Rng& rng) const {
    return instant_rsrp_from_mean(mean_rsrp_dbm(cell_idx, track_pos_m), rng);
  }

  /// Stable delay-Doppler SNR (dB): fading averaged over the grid, small
  /// residual only — what REM's overlay measures.
  double dd_snr_db(std::size_t cell_idx, double track_pos_m,
                   common::Rng& rng) const {
    return dd_snr_from_mean(mean_rsrp_dbm(cell_idx, track_pos_m), rng);
  }

  /// instant_rsrp_dbm / dd_snr_db for a cell whose mean RSRP is already
  /// known: one Gaussian draw each, the same doubles as the full calls.
  double instant_rsrp_from_mean(double mean_dbm, common::Rng& rng) const {
    return instant_rsrp_from_normal(mean_dbm, rng.gaussian());
  }
  double dd_snr_from_mean(double mean_dbm, common::Rng& rng) const {
    return dd_snr_from_normal(mean_dbm, rng.gaussian());
  }

  /// The same two metrics from a standard normal `z` drawn by the caller
  /// (one of common::Rng::normals' values): equal to the `_from_mean` call
  /// that would have drawn it. `z * sigma + 0.0` is the value
  /// gaussian(0.0, sigma) returns for that draw.
  double instant_rsrp_from_normal(double mean_dbm, double z) const {
    return mean_dbm + (z * cfg_.fading_sigma_db + 0.0);
  }
  double dd_snr_from_normal(double mean_dbm, double z) const {
    return snr_db_from_rsrp(mean_dbm + (z * cfg_.dd_residual_sigma_db + 0.0));
  }

  /// SNR corresponding to a given RSRP on this cell.
  double snr_db_from_rsrp(double rsrp_dbm) const {
    return rsrp_dbm - kNoiseFloorDbm;
  }

  /// Index of the strongest cell by mean RSRP (coverage-hole cells
  /// excluded); returns -1 if everything is below `min_rsrp_dbm`.
  /// `excluded[i] != 0` skips cell i (indices past its end are kept): the
  /// simulator passes its dead-cell mask, so re-establishment and failure
  /// classification never pick a crashed BS, and a region outage removes
  /// its whole failure domain at once. Throws std::invalid_argument for a
  /// floor below `kWindowFloorDbm`.
  int best_cell(double track_pos_m, double min_rsrp_dbm,
                const std::vector<char>& excluded = {}) const;

  /// Replaces `out` with the cells whose mean RSRP at this position could
  /// reach `floor_dbm`, in ascending cell index: every cell with
  /// `mean_rsrp_dbm(i, track_pos_m) >= floor_dbm` is in it, and every cell
  /// left out is below the floor (some kept cells may be too). It costs a
  /// binary search plus one multiply-compare per nearby cell, whatever the
  /// route length. Returns every cell when no bound applies (non-positive
  /// path-loss exponent, non-finite inputs, a NaN floor). Throws
  /// std::invalid_argument for a floor below `kWindowFloorDbm`.
  void cells_in_reach(double track_pos_m, double floor_dbm,
                      std::vector<std::size_t>& out) const;

  /// True if the position lies in a hole segment (start inclusive, end
  /// exclusive). Binary search over the segments sorted by start.
  bool position_in_hole(double track_pos_m) const;

  /// Shadowing-grid nodes kept over every site and cell window: the
  /// world's memory, which stays flat per route km.
  std::size_t stored_grid_nodes() const;

 private:
  /// An AR(1) shadowing grid kept over nodes [first, first + nodes.size())
  /// of the route's `steps_` nodes, step `kShadowStep_m`.
  struct Grid {
    std::size_t first = 0;
    std::vector<double> nodes;
  };
  /// Linear interpolation between `grid`'s nodes i0 and i1.
  static double sample_grid(const Grid& grid, std::size_t i0,
                            std::size_t i1, double frac) {
    return grid.nodes[i0 - grid.first] * (1.0 - frac) +
           grid.nodes[i1 - grid.first] * frac;
  }
  /// Calls `visit(i)` for each cell cells_in_reach would return, in
  /// position order (every cell, in index order, when unbounded).
  template <typename Visit>
  void visit_reach(double track_pos_m, double floor_dbm, Visit&& visit) const;

  std::vector<Cell> cells_;
  PropagationConfig cfg_;
  /// Hole segments sorted by start, with the running maximum of their
  /// ends (start + length): a position is in a hole iff the largest end
  /// among the segments starting at or before it lies beyond it.
  std::vector<double> hole_starts_;
  std::vector<double> hole_end_max_;
  /// Per-site and per-cell residual shadowing grids, each kept over its
  /// window: a cell's spans the blocks where the reach bound below admits
  /// it at `kWindowFloorDbm`, a site's the union of its cells' windows.
  std::vector<Grid> site_shadow_grids_;
  std::vector<Grid> cell_shadow_grids_;
  std::vector<std::size_t> cell_site_grid_;  ///< cell idx -> site grid idx
  std::vector<double> freq_loss_db_;  ///< 20 log10(carrier / 2 GHz) per cell
  double track_len_m_ = 0.0;
  std::size_t steps_ = 0;  ///< nodes of a route-length grid
  static constexpr double kShadowStep_m = 10.0;

  // Reach bound (cells_in_reach). Mean RSRP is at most
  //   tx - ref - freq + S_max - 10 n log10(d),
  // with S_max the largest site + cell shadowing over the UE's 1 km block
  // of the grids; solving for d turns "could reach floor F" into
  //   dx^2 + offset^2 <= reach2 * 10^(-F / 5n).
  static constexpr std::size_t kBlockSteps = 100;  ///< grid steps per block
  static constexpr double kReachMarginDb = 0.01;   ///< rounding headroom
  bool bounded_ = false;              ///< false: every cell is in reach
  std::vector<std::size_t> by_pos_;   ///< cell indices sorted by site_pos_m
  std::vector<double> sorted_pos_;    ///< site_pos_m in by_pos_ order
  std::vector<double> sorted_off2_;   ///< site_offset_m^2 in by_pos_ order
  /// 10^(bound_db / 5n) per (block, by_pos_ rank), block-major; the bound
  /// covers every position whose interpolation reads the block's nodes.
  std::vector<double> reach2_;
  std::vector<double> block_reach2_;  ///< max of reach2_ over each block
};

/// Parameters for synthesizing a rail deployment.
struct DeploymentConfig {
  double route_len_m = 50e3;
  double site_spacing_mean_m = 1100.0;
  double site_spacing_jitter_m = 250.0;
  double site_offset_min_m = 80.0;    ///< paper: 80-550 m LOS distance
  double site_offset_max_m = 350.0;
  /// Probability a site hosts a second cell on another channel (the
  /// cross-band opportunity; 53.4% of cells share a site in the dataset).
  double colocated_second_cell_prob = 0.75;
  /// Fraction of sites *without* a corridor-layer (primary channel) cell:
  /// only a secondary-carrier cell covers them. Legacy multi-stage
  /// policies can miss these cells (Table 2's "missed cell" failures).
  double primary_missing_prob = 0.08;
  /// Available frequency channels (EARFCN-like ids paired with carriers).
  std::vector<std::pair<mobility::ChannelId, double>> channels = {
      {1825, 1.88e9}, {2452, 2.36e9}, {100, 2.11e9}};
  /// Bandwidth options for secondary cells (the datasets mix 5/10/15/20
  /// MHz carriers — the Fig. 3 heterogeneity).
  std::vector<double> secondary_bandwidths_hz = {5e6, 10e6, 15e6, 20e6};
  /// Coverage holes: expected segments per km and their length range.
  double holes_per_km = 0.008;
  double hole_len_min_m = 120.0;
  double hole_len_max_m = 400.0;
  double tx_power_dbm = 46.0;
};

std::vector<Cell> make_rail_deployment(const DeploymentConfig& cfg,
                                       common::Rng& rng);

/// Sample coverage-hole segments along the route.
std::vector<HoleSegment> make_hole_segments(const DeploymentConfig& cfg,
                                            common::Rng& rng);

}  // namespace rem::sim
