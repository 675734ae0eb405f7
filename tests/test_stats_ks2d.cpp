#include "stats/ks2d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::stats {
namespace {

using geo::BoundingBox;
using geo::Point;

std::vector<Point> uniform_sample(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return uniform_points(rng, BoundingBox{{0, 0}, {1000, 1000}}, n);
}

TEST(Ks2d, IdenticalSamplesHaveZeroStatistic) {
  const auto a = uniform_sample(1, 60);
  EXPECT_DOUBLE_EQ(peacock_statistic(a, a), 0.0);
  EXPECT_DOUBLE_EQ(fasano_franceschini_statistic(a, a), 0.0);
}

TEST(Ks2d, DisjointSamplesHaveStatisticNearOne) {
  Rng rng(2);
  const auto a = normal_points(rng, {0, 0}, 1.0, 50);
  const auto b = normal_points(rng, {1e6, 1e6}, 1.0, 50);
  EXPECT_GT(peacock_statistic(a, b), 0.99);
}

TEST(Ks2d, StatisticIsSymmetric) {
  const auto a = uniform_sample(3, 40);
  const auto b = uniform_sample(4, 50);
  EXPECT_DOUBLE_EQ(peacock_statistic(a, b), peacock_statistic(b, a));
  EXPECT_DOUBLE_EQ(fasano_franceschini_statistic(a, b),
                   fasano_franceschini_statistic(b, a));
}

TEST(Ks2d, StatisticWithinUnitInterval) {
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto a = uniform_sample(10 + s, 30);
    const auto b = uniform_sample(20 + s, 35);
    const double d = peacock_statistic(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(Ks2d, SameDistributionGivesSmallD) {
  const auto a = uniform_sample(5, 150);
  const auto b = uniform_sample(6, 150);
  EXPECT_LT(peacock_statistic(a, b), 0.25);
}

TEST(Ks2d, DifferentDistributionsGiveLargerD) {
  Rng rng(7);
  const auto uniform = uniform_sample(8, 120);
  const auto clustered = normal_points(rng, {500, 500}, 50.0, 120);
  const double d_diff = peacock_statistic(uniform, clustered);
  const double d_same = peacock_statistic(uniform, uniform_sample(9, 120));
  EXPECT_GT(d_diff, 2.0 * d_same);
}

TEST(Ks2d, FasanoFranceschiniTracksPeacock) {
  // The FF statistic uses a subset of Peacock's origins, so it can only be
  // <= Peacock's D, and in practice stays close.
  for (std::uint64_t s = 0; s < 8; ++s) {
    Rng rng(100 + s);
    const auto a = uniform_sample(200 + s, 60);
    const auto b = normal_points(rng, {500, 500}, 220.0, 60);
    const double dp = peacock_statistic(a, b);
    const double dff = fasano_franceschini_statistic(a, b);
    EXPECT_LE(dff, dp + 1e-12);
    EXPECT_GT(dff, dp * 0.5);
  }
}

TEST(Ks2d, ThrowsOnEmptySamples) {
  const auto a = uniform_sample(10, 5);
  EXPECT_THROW((void)peacock_statistic(a, {}), std::invalid_argument);
  EXPECT_THROW((void)peacock_statistic({}, a), std::invalid_argument);
  EXPECT_THROW((void)fasano_franceschini_statistic({}, a), std::invalid_argument);
  EXPECT_THROW((void)ks2d_test({}, a), std::invalid_argument);
}

TEST(Ks2d, SimilarityPercentFormula) {
  EXPECT_DOUBLE_EQ(ks_similarity_percent(0.0), 100.0);
  EXPECT_DOUBLE_EQ(ks_similarity_percent(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ks_similarity_percent(0.25), 75.0);
}

TEST(Ks2d, TestUsesPeacockBelowLimitAndFfAbove) {
  const auto a = uniform_sample(11, 30);
  const auto b = uniform_sample(12, 30);
  const auto peacock = ks2d_test(a, b, /*peacock_limit=*/100);
  const auto ff = ks2d_test(a, b, /*peacock_limit=*/10);
  EXPECT_DOUBLE_EQ(peacock.d, peacock_statistic(a, b));
  EXPECT_DOUBLE_EQ(ff.d, fasano_franceschini_statistic(a, b));
}

TEST(Ks2d, PValueHighForSameDistribution) {
  const auto a = uniform_sample(13, 120);
  const auto b = uniform_sample(14, 120);
  EXPECT_GT(ks2d_test(a, b).p_value, 0.05);
}

TEST(Ks2d, PValueLowForDifferentDistributions) {
  Rng rng(15);
  const auto a = uniform_sample(16, 120);
  const auto b = normal_points(rng, {200, 800}, 40.0, 120);
  EXPECT_LT(ks2d_test(a, b).p_value, 0.01);
}

TEST(Ks2d, TailProbabilityProperties) {
  EXPECT_DOUBLE_EQ(ks_tail_probability(0.0), 1.0);
  EXPECT_LT(ks_tail_probability(2.0), 0.01);
  // Monotone decreasing.
  double prev = 1.0;
  for (double lambda = 0.1; lambda < 3.0; lambda += 0.1) {
    const double q = ks_tail_probability(lambda);
    EXPECT_LE(q, prev + 1e-12);
    EXPECT_GE(q, 0.0);
    prev = q;
  }
}

TEST(Ks2d, WeekdayWeekendStyleShiftIsDetected) {
  // Two POI mixtures sharing one cluster but differing in the other —
  // the Table IV situation (weekday vs weekend demand).
  Rng rng(17);
  const std::vector<GaussianCluster> weekday{
      {{500, 500}, 80.0, 3.0}, {{2500, 2500}, 80.0, 1.0}};
  const std::vector<GaussianCluster> weekend{
      {{500, 500}, 80.0, 1.0}, {{2500, 2500}, 80.0, 3.0}};
  const auto w1 = mixture_points(rng, weekday, 150);
  const auto w2 = mixture_points(rng, weekday, 150);
  const auto e1 = mixture_points(rng, weekend, 150);
  const double sim_within = ks2d_test(w1, w2).similarity;
  const double sim_across = ks2d_test(w1, e1).similarity;
  EXPECT_GT(sim_within, sim_across + 10.0);
}

// --- Ks2dExact: the sweep against the frozen per-origin scan ---------------

/// RAII width override so a failing assertion cannot leak a wide pool
/// into later tests.
struct ScopedThreads {
  std::size_t original;
  explicit ScopedThreads(std::size_t width) : original(exec::global_threads()) {
    exec::set_global_threads(width);
  }
  ~ScopedThreads() { exec::set_global_threads(original); }
};

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// D from the sweep must equal the scan's bit for bit, in both argument
/// orders, at pool widths 1, 2 and 4 (the scan fans out on the pool).
void expect_exact(const std::vector<Point>& a, const std::vector<Point>& b,
                  const std::string& label) {
  for (const std::size_t width : {1, 2, 4}) {
    ScopedThreads scoped(width);
    const double sweep_ab = fasano_franceschini_statistic(a, b);
    const double scan_ab = reference::fasano_franceschini_scan(a, b);
    const double sweep_ba = fasano_franceschini_statistic(b, a);
    const double scan_ba = reference::fasano_franceschini_scan(b, a);
    EXPECT_TRUE(same_bits(sweep_ab, scan_ab))
        << label << " width " << width << ": sweep " << sweep_ab << " scan "
        << scan_ab;
    EXPECT_TRUE(same_bits(sweep_ba, scan_ba))
        << label << " (swapped) width " << width << ": sweep " << sweep_ba
        << " scan " << scan_ba;
  }
}

std::vector<Point> grid_sample(Rng& rng, std::size_t n, std::size_t side) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(rng.index(side)),
                   static_cast<double>(rng.index(side))});
  }
  return pts;
}

TEST(Ks2dExact, UniformPoints) {
  for (std::uint64_t s = 0; s < 6; ++s) {
    expect_exact(uniform_sample(300 + s, 40 + 37 * s),
                 uniform_sample(400 + s, 25 + 51 * s),
                 "uniform seed " + std::to_string(s));
  }
}

TEST(Ks2dExact, IntegerGridTies) {
  for (std::uint64_t s = 0; s < 6; ++s) {
    Rng rng(500 + s);
    const std::size_t side = 2 + 3 * s;  // 2x2 up to 17x17 lattices
    const auto a = grid_sample(rng, 60 + 10 * s, side);
    const auto b = grid_sample(rng, 45 + 15 * s, side);
    expect_exact(a, b, "grid side " + std::to_string(side));
  }
}

TEST(Ks2dExact, AllIdenticalPoints) {
  const std::vector<Point> a(50, Point{3.0, 3.0});
  const std::vector<Point> same(40, Point{3.0, 3.0});
  const std::vector<Point> other(40, Point{7.0, -2.0});
  expect_exact(a, same, "identical, same point");
  expect_exact(a, other, "identical, different points");
  EXPECT_EQ(fasano_franceschini_statistic(a, same), 0.0);
}

TEST(Ks2dExact, SingletonAgainstLargeSample) {
  const std::vector<Point> one{{500.0, 500.0}};
  expect_exact(one, uniform_sample(601, 5000), "n = 1 vs m = 5000");
}

TEST(Ks2dExact, SharedXDifferentYAndTheReverse) {
  Rng rng(700);
  std::vector<Point> columns, rows, b;
  for (std::size_t i = 0; i < 120; ++i) {
    const double shared = static_cast<double>(i % 4) * 250.0;
    const double free = rng.uniform(0.0, 1000.0);
    columns.push_back({shared, free});
    rows.push_back({free, shared});
  }
  b = uniform_sample(701, 90);
  expect_exact(columns, b, "shared x");
  expect_exact(rows, b, "shared y");
  expect_exact(columns, rows, "shared x vs shared y");
}

TEST(Ks2dExact, NonFiniteAndSignedZeroCoordinates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> special{nan, kInf, -kInf, -0.0, 0.0, 1.0, -1.0};
  for (std::uint64_t s = 0; s < 8; ++s) {
    Rng rng(800 + s);
    const auto draw = [&](std::size_t n) {
      std::vector<Point> pts;
      for (std::size_t i = 0; i < n; ++i) {
        const auto coord = [&] {
          return rng.bernoulli(0.5) ? special[rng.index(special.size())]
                                    : rng.uniform(-2.0, 2.0);
        };
        const double x = coord();
        pts.push_back({x, coord()});
      }
      return pts;
    };
    const auto a = draw(30 + 5 * s);
    const auto b = draw(20 + 7 * s);
    expect_exact(a, b, "special values seed " + std::to_string(s));
    EXPECT_FALSE(std::isnan(fasano_franceschini_statistic(a, b)));
  }
  // Every origin with a NaN coordinate: D comes from the other marginal.
  const std::vector<Point> nan_x_low{{nan, 0.0}, {nan, 1.0}, {2.0, nan}};
  const std::vector<Point> nan_x_high{{nan, 5.0}, {nan, 6.0}, {nan, 7.0}};
  expect_exact(nan_x_low, nan_x_high, "NaN x, split y");
  EXPECT_GT(fasano_franceschini_statistic(nan_x_low, nan_x_high), 0.0);
}

TEST(Ks2dExact, MetroHistoryAndWindowShapes) {
  // The stream regime check's inputs: ~1,000 history points against a
  // ~900-point window, both clustered around hotspots in a 40 km box and
  // clamped to it, so the box edges carry exact ties.
  Rng rng(900);
  constexpr double kArea = 40000.0;
  std::vector<Point> centres;
  for (std::size_t i = 0; i < 200; ++i) {
    centres.push_back({rng.uniform(0.0, kArea), rng.uniform(0.0, kArea)});
  }
  const auto clustered = [&](std::size_t n, double noise_share) {
    std::vector<Point> pts;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(noise_share)) {
        pts.push_back({rng.uniform(0.0, kArea), rng.uniform(0.0, kArea)});
        continue;
      }
      const Point c = centres[rng.index(centres.size())];
      pts.push_back({std::clamp(c.x + rng.normal(0.0, 300.0), 0.0, kArea),
                     std::clamp(c.y + rng.normal(0.0, 300.0), 0.0, kArea)});
    }
    return pts;
  };
  const auto history = clustered(1000, 0.0);
  expect_exact(history, clustered(900, 0.3), "metro window");
  expect_exact(history, clustered(110, 0.3), "metro window, 8 shards");
}

TEST(Ks2dExact, RandomMixedCases) {
  // Small random cases over every generator above, with random sizes.
  Rng rng(1000);
  for (std::size_t c = 0; c < 200; ++c) {
    const auto draw = [&](std::size_t n) {
      switch (c % 3) {
        case 0: return uniform_points(rng, BoundingBox{{0, 0}, {10, 10}}, n);
        case 1: return grid_sample(rng, n, 1 + c % 7);
        default: return normal_points(rng, {0, 0}, 1.0, n);
      }
    };
    const auto a = draw(1 + rng.index(40));
    const auto b = draw(1 + rng.index(40));
    expect_exact(a, b, "case " + std::to_string(c));
  }
}

}  // namespace
}  // namespace esharing::stats
