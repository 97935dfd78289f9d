#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace rc = rem::common;

TEST(Units, DbRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(rc::lin_to_db(rc::db_to_lin(db)), db, 1e-12);
  }
}

TEST(Units, DbmWatt) {
  EXPECT_NEAR(rc::dbm_to_watt(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(rc::dbm_to_watt(30.0), 1.0, 1e-12);
  EXPECT_NEAR(rc::watt_to_dbm(1e-3), 0.0, 1e-9);
}

TEST(Units, SpeedConversions) {
  EXPECT_NEAR(rc::kmh_to_mps(360.0), 100.0, 1e-12);
  EXPECT_NEAR(rc::mps_to_kmh(100.0), 360.0, 1e-12);
}

TEST(Units, DopplerMatchesPaperNumbers) {
  // §2: Tc ≈ 20 ms for a vehicle at 60 km/h under 900 MHz.
  const double tc =
      rc::coherence_time_s(rc::kmh_to_mps(60.0), 900e6);
  EXPECT_NEAR(tc * 1e3, 20.0, 1.0);
  // §3.1: Tc in [1.16 ms, 6.18 ms] for f in [874.2, 2665] MHz and
  // v in [200, 350] km/h.
  const double tc_min =
      rc::coherence_time_s(rc::kmh_to_mps(350.0), 2665e6);
  const double tc_max =
      rc::coherence_time_s(rc::kmh_to_mps(200.0), 874.2e6);
  EXPECT_NEAR(tc_min * 1e3, 1.16, 0.05);
  EXPECT_NEAR(tc_max * 1e3, 6.18, 0.05);
}

TEST(Units, StaticClientHasInfiniteCoherence) {
  EXPECT_TRUE(std::isinf(rc::coherence_time_s(0.0, 2e9)));
}

TEST(Units, ShannonCapacity) {
  EXPECT_NEAR(rc::shannon_capacity_bps(1.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(rc::shannon_capacity_bps(20e6, 3.0), 40e6, 1.0);
}

TEST(Rng, Deterministic) {
  rc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, ComplexGaussianVariance) {
  rc::Rng rng(7);
  double p = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) p += std::norm(rng.complex_gaussian(2.0));
  EXPECT_NEAR(p / n, 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  rc::Rng a(1);
  rc::Rng child = a.fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(child.uniform(0, 1), a.uniform(0, 1));
}

TEST(Rng, BernoulliRate) {
  rc::Rng rng(3);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// Rng against the libstdc++ oracle: every stream must equal
// std::mt19937_64 driven through the std distributions, bit for bit.

static_assert(std::uniform_random_bit_generator<rc::Mt19937_64>);

namespace {

const std::uint64_t kOracleSeeds[] = {
    0, 1, 5, 5489, std::uint64_t{1} << 63,
    std::numeric_limits<std::uint64_t>::max()};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// For each oracle seed, calls step(rng, ref) `rounds` times on a fresh
/// Rng and std::mt19937_64 of that seed (stopping at the first fatal
/// failure), then checks both engines are still in step.
template <class Step>
void for_each_oracle_seed(int rounds, Step step) {
  for (const std::uint64_t seed : kOracleSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    rc::Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < rounds; ++i) {
      step(rng, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(rng.engine()(), ref());
  }
}

/// A generator whose every output is `value`, to drive
/// std::generate_canonical at chosen inputs.
struct FixedOutput {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return value; }
  result_type value;
};

}  // namespace

TEST(RngOracle, EngineStreamEqualsStdMt19937_64) {
  // 10^6 outputs per seed run through ~3,200 twists.
  for (const std::uint64_t seed : kOracleSeeds) {
    rc::Mt19937_64 engine(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += engine() != ref();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(RngOracle, CanonicalEqualsGenerateCanonical) {
  const double below_one = std::nextafter(1.0, 0.0);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  // 2^64 - 2^10 is the smallest output that rounds up to 2^64.
  EXPECT_EQ(bits(rc::to_canonical(top)), bits(below_one));
  EXPECT_EQ(bits(rc::to_canonical(top - 1023)), bits(below_one));
  const std::uint64_t p53 = std::uint64_t{1} << 53;
  const std::uint64_t p63 = std::uint64_t{1} << 63;
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xffffffff},
        std::uint64_t{1} << 32, p53 - 1, p53 + 1, p53 + 3, p63 - 1, p63,
        p63 + 1, p63 + 1024, p63 + 3072, top - 3072, top - 3071,
        top - 2047, top - 1024, top - 1023, top - 1, top}) {
    FixedOutput g{x};
    EXPECT_EQ(bits(rc::to_canonical(x)),
              bits(std::generate_canonical<double, 53>(g)))
        << "output " << x;
  }
  for_each_oracle_seed(100'000, [](rc::Rng& rng, std::mt19937_64& ref) {
    ASSERT_EQ(bits(rng.canonical()),
              bits(std::generate_canonical<double, 53>(ref)));
  });
}

TEST(RngOracle, UniformEqualsUniformRealDistribution) {
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0},  {-5.0, 3.0},   {-1e3, -1e-3},  {2.5, 2.5},
      {-0.0, 0.0}, {-40.0, 40.0}, {1e-300, 1e300}};
  for_each_oracle_seed(20'000, [&](rc::Rng& rng, std::mt19937_64& ref) {
    for (const auto& [lo, hi] : ranges)
      ASSERT_EQ(bits(rng.uniform(lo, hi)),
                bits(std::uniform_real_distribution<double>(lo, hi)(ref)))
          << "[" << lo << ", " << hi << ")";
  });
}

TEST(RngOracle, BernoulliEqualsBernoulliDistribution) {
  for_each_oracle_seed(50'000, [](rc::Rng& rng, std::mt19937_64& ref) {
    for (const double p : {0.0, 1e-9, 0.3, 1.0})
      ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(ref))
          << "p " << p;
  });
}

TEST(RngOracle, GaussianEqualsNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {3.5, 0.25}, {-120.0, 8.0}, {1e6, 1e-6}};
  for_each_oracle_seed(20'000, [&](rc::Rng& rng, std::mt19937_64& ref) {
    for (const auto& [mean, sigma] : params)
      ASSERT_EQ(bits(rng.gaussian(mean, sigma)),
                bits(std::normal_distribution<double>(mean, sigma)(ref)))
          << "mean " << mean << " sigma " << sigma;
    for (const double variance : {1.0, 2.0, 0.37}) {
      const auto z = rng.complex_gaussian(variance);
      const double s = std::sqrt(variance / 2.0);
      const double re = std::normal_distribution<double>(0.0, s)(ref);
      const double im = std::normal_distribution<double>(0.0, s)(ref);
      ASSERT_EQ(bits(z.real()), bits(re)) << "variance " << variance;
      ASSERT_EQ(bits(z.imag()), bits(im)) << "variance " << variance;
    }
  });
}

TEST(RngOracle, DelegatedDrawsEqualTheStdDistributions) {
  const std::int64_t lowest = std::numeric_limits<std::int64_t>::min();
  const std::int64_t highest = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> int_ranges[] = {
      {0, 0}, {-3, 3}, {-1000, -1}, {0, 1'000'000'000},
      {0, std::int64_t{1} << 40}, {lowest, highest}};
  for_each_oracle_seed(10'000, [&](rc::Rng& rng, std::mt19937_64& ref) {
    for (const double mean : {0.05, 1.0, 7.5})
      ASSERT_EQ(
          bits(rng.exponential(mean)),
          bits(std::exponential_distribution<double>(1.0 / mean)(ref)))
          << "mean " << mean;
    for (const auto& [lo, hi] : int_ranges)
      ASSERT_EQ(rng.uniform_int(lo, hi),
                std::uniform_int_distribution<std::int64_t>(lo, hi)(ref))
          << "[" << lo << ", " << hi << "]";
    for (const double mean : {0.5, 3.0, 11.9, 12.0, 40.0})
      ASSERT_EQ(rng.poisson(mean), std::poisson_distribution<int>(mean)(ref))
          << "mean " << mean;
  });
}

TEST(RngOracle, ForkChainsEqualReseededStdEngines) {
  for_each_oracle_seed(1, [](rc::Rng& a, std::mt19937_64& ref_a) {
    rc::Rng b = a.fork();
    std::mt19937_64 ref_b(ref_a());
    rc::Rng c = b.fork();
    std::mt19937_64 ref_c(ref_b());
    rc::Rng d = c.fork();
    std::mt19937_64 ref_d(ref_c());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(bits(d.gaussian()),
                bits(std::normal_distribution<double>()(ref_d)));
      ASSERT_EQ(bits(c.uniform(-1.0, 1.0)),
                bits(std::uniform_real_distribution<double>(-1, 1)(ref_c)));
      ASSERT_EQ(b.engine()(), ref_b());
      ASSERT_EQ(bits(a.canonical()),
                bits(std::generate_canonical<double, 53>(ref_a)));
    }
  });
}

TEST(RngOracle, ShuffleThroughEngineEqualsStd) {
  for_each_oracle_seed(3, [](rc::Rng& rng, std::mt19937_64& ref) {
    std::vector<int> got(1000), want(1000);
    std::iota(got.begin(), got.end(), 0);
    std::iota(want.begin(), want.end(), 0);
    std::shuffle(got.begin(), got.end(), rng.engine());
    std::shuffle(want.begin(), want.end(), ref);
    ASSERT_EQ(got, want);
  });
}

// std::poisson_distribution requires mean > 0 and std::normal_distribution
// sigma > 0 (both abort under _GLIBCXX_ASSERTIONS); the release build runs
// them anyway, and Rng keeps those results and draw counts.
TEST(RngOracle, PoissonZeroMeanDrawsOnceAndReturnsZero) {
  for_each_oracle_seed(1000, [](rc::Rng& rng, std::mt19937_64& ref) {
    ASSERT_EQ(rng.poisson(0.0), 0);
    std::generate_canonical<double, 53>(ref);
    ASSERT_EQ(rng.engine()(), ref());
  });
}

TEST(RngOracle, ZeroSigmaGaussianReturnsTheMeanAfterTheSameDraws) {
  for_each_oracle_seed(1000, [](rc::Rng& rng, std::mt19937_64& ref) {
    ASSERT_EQ(bits(rng.gaussian(4.5, 0.0)), bits(4.5));
    std::normal_distribution<double>(4.5, 1.0)(ref);  // the same polar draws
    ASSERT_EQ(rng.engine()(), ref());
  });
}

TEST(RngOracle, NormalsEqualNormalDistribution) {
  // Batches of 257 span chunk and twist boundaries at every offset; each
  // value scaled as `z * sigma + mean` is std::normal_distribution's.
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {3.5, 0.25}, {-120.0, 8.0}, {1e6, 1e-6}};
  std::vector<double> z(257);
  for_each_oracle_seed(50, [&](rc::Rng& rng, std::mt19937_64& ref) {
    rng.normals(z);
    for (std::size_t i = 0; i < z.size(); ++i) {
      const auto& [mean, sigma] = params[i % std::size(params)];
      ASSERT_EQ(bits(z[i] * sigma + mean),
                bits(std::normal_distribution<double>(mean, sigma)(ref)))
          << "value " << i;
    }
  });
}

TEST(Rng, EngineFillEqualsSingleCalls) {
  constexpr std::uint64_t kUnwritten = 0x5eed5eed5eed5eedULL;
  // Skipping 0 starts from a fresh state, 312 at a block's end, and the
  // others mid-block.
  for (const std::uint64_t seed : kOracleSeeds) {
    for (const std::size_t skip : {0, 1, 5, 156, 311, 312}) {
      for (const std::size_t n : {0, 1, 2, 311, 312, 313, 1000}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " skip " +
                     std::to_string(skip) + " n " + std::to_string(n));
        rc::Mt19937_64 batched(seed), single(seed);
        for (std::size_t i = 0; i < skip; ++i) {
          batched();
          single();
        }
        std::vector<std::uint64_t> got(n + 1, kUnwritten);
        batched.fill(got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(got[i], single()) << "word " << i;
        EXPECT_EQ(got[n], kUnwritten);
        EXPECT_EQ(batched(), single());
      }
    }
  }
}

TEST(Rng, NormalsEqualSuccessiveGaussians) {
  // An odd number of prior canonical() draws leaves the stream off pair
  // alignment; the next canonical() shows both streams end in one place.
  std::vector<double> z;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    for (const int prior : {0, 1, 3}) {
      for (const std::size_t n :
           {0, 1, 2, 3, 255, 256, 257, 313, 100'000}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " prior " +
                     std::to_string(prior) + " n " + std::to_string(n));
        rc::Rng batched(seed), single(seed);
        for (int i = 0; i < prior; ++i) {
          batched.canonical();
          single.canonical();
        }
        z.assign(n, 0.0);
        batched.normals(z);
        std::size_t mismatches = 0;
        for (const double v : z) mismatches += bits(v) != bits(single.gaussian());
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(bits(batched.canonical()), bits(single.canonical()));
      }
    }
  }
}

TEST(Rng, PartialNormalsEqualNormalsOnTransformedSlots) {
  // Every phase set of periods 1 to 3, from a pair-aligned and an
  // unaligned stream: a slot in the set holds normals(z)'s value, every
  // other slot is NaN, and both streams end in one place.
  std::vector<double> full, part;
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    for (const int prior : {0, 1}) {
      for (const std::size_t n : {0, 1, 2, 255, 256, 257, 100'000}) {
        for (std::size_t period = 1; period <= 3; ++period) {
          for (std::uint32_t phases = 0; phases < (1u << period); ++phases) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " prior " +
                         std::to_string(prior) + " n " + std::to_string(n) +
                         " period " + std::to_string(period) + " phases " +
                         std::to_string(phases));
            rc::Rng a(seed), b(seed);
            for (int i = 0; i < prior; ++i) {
              a.canonical();
              b.canonical();
            }
            full.assign(n, 0.0);
            part.assign(n, 0.0);
            a.normals(full);
            b.normals_partial(part, period, phases);
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < n; ++i) {
              const bool read = (phases >> (i % period)) & 1u;
              mismatches += read ? bits(part[i]) != bits(full[i])
                                 : !std::isnan(part[i]);
            }
            EXPECT_EQ(mismatches, 0u);
            EXPECT_EQ(bits(a.canonical()), bits(b.canonical()));
          }
        }
      }
    }
  }
}

TEST(Rng, PartialNormalsRejectPeriodsOutsideOneToThirtyTwo) {
  rc::Rng rng(1);
  std::vector<double> z(4);
  EXPECT_THROW(rng.normals_partial(z, 0, 1), std::invalid_argument);
  EXPECT_THROW(rng.normals_partial(z, 33, 1), std::invalid_argument);
  EXPECT_NO_THROW(rng.normals_partial(z, 32, 1));
}

TEST(Summary, BasicStats) {
  rc::Summary s;
  s.add_all({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Summary, PercentileInterpolation) {
  rc::Summary s;
  s.add_all({0, 10});
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(Summary, CdfAt) {
  rc::Summary s;
  s.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Summary, EmpiricalCdfMonotone) {
  std::vector<double> xs;
  rc::Rng rng(9);
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.gaussian());
  const auto cdf = rc::empirical_cdf(xs, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction);
    EXPECT_LT(cdf[i - 1].value, cdf[i].value);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Summary, EmptyInputs) {
  rc::Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW(s.percentile(50), std::runtime_error);
  EXPECT_TRUE(rc::empirical_cdf({}, 10).empty());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  rc::parallel_for(n, 8, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialFallbackRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  rc::parallel_for(4, 1, [&caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(
      rc::parallel_for(16, 4,
                       [&completed](std::size_t i) {
                         if (i == 5) throw std::runtime_error("boom");
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // all non-throwing indices still ran
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  rc::parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, ZeroThreadsMeansHardwareThreads) {
  const std::size_t hw = rc::hardware_threads();
  EXPECT_GE(hw, 1u);
  std::vector<std::atomic<int>> hits(64);
  std::mutex ids_mu;
  std::set<std::thread::id> ids;
  rc::parallel_for(hits.size(), 0, [&](std::size_t i) {
    hits[i].fetch_add(1);
    std::lock_guard<std::mutex> lock(ids_mu);
    ids.insert(std::this_thread::get_id());
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(ids.size(), hw);
}

TEST(ParallelFor, SingleItemDegradesToSerial) {
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  rc::parallel_for(1, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialPathPropagatesFirstException) {
  // num_threads == 1 runs on the calling thread; it must match the
  // threaded path's contract — finish the remaining indices, then rethrow
  // the first failure.
  int completed = 0;
  try {
    rc::parallel_for(8, 1, [&completed](std::size_t i) {
      if (i == 2 || i == 5) throw std::invalid_argument("boom " +
                                                        std::to_string(i));
      ++completed;
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "boom 2");  // first, not last
  }
  EXPECT_EQ(completed, 6);
}
