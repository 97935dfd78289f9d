#include "common/units.hpp"
#include "sim/radio_env.hpp"
#include "common/stats.hpp"
#include "phy/bler_model.hpp"
#include "sim/simulator.hpp"
#include "sim/tcp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
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
