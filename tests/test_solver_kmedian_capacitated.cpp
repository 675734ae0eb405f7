#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "solver/k_median.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver {
namespace {

using geo::Point;

FlInstance cluster_instance() {
  // Two tight clusters far apart, colocated candidates.
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 5; ++i) {
    clients.push_back({{static_cast<double>(i * 10), 0.0}, 1.0});
    clients.push_back({{10000.0 + i * 10, 0.0}, 1.0});
    costs.push_back(123.0);  // k-median must ignore these
    costs.push_back(123.0);
  }
  return colocated_instance(clients, costs);
}

TEST(KMedian, ValidatesK) {
  const auto inst = cluster_instance();
  EXPECT_THROW((void)k_median(inst, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)k_median(inst, 11, 1), std::invalid_argument);
}

TEST(KMedian, OpensExactlyKAndIgnoresOpeningCosts) {
  const auto inst = cluster_instance();
  const auto sol = k_median(inst, 2, 1);
  EXPECT_EQ(sol.num_open(), 2u);
  EXPECT_DOUBLE_EQ(sol.opening_cost, 0.0);
}

TEST(KMedian, KEquals2SplitsTheClusters) {
  const auto inst = cluster_instance();
  const auto sol = k_median(inst, 2, 2);
  // One median per cluster keeps every walk within the 40 m cluster span.
  EXPECT_LT(sol.connection_cost, 200.0);
  const double x0 = inst.facilities[sol.open[0]].location.x;
  const double x1 = inst.facilities[sol.open[1]].location.x;
  EXPECT_NE(x0 < 5000.0, x1 < 5000.0);  // different clusters
}

TEST(KMedian, MoreMediansNeverIncreaseCost) {
  stats::Rng rng(3);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 30);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, rng.uniform(0.5, 2.0)});
    costs.push_back(0.0);
  }
  const auto inst = colocated_instance(clients, costs);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k : {1, 2, 4, 8, 16}) {
    const double c = k_median(inst, k, 4).connection_cost;
    EXPECT_LE(c, prev + 1e-9);
    prev = c;
  }
  // k = #facilities: everything is a median, walking cost 0.
  EXPECT_DOUBLE_EQ(k_median(inst, pts.size(), 4).connection_cost, 0.0);
}

TEST(KMedian, SwapSearchBeatsBadSeeds) {
  // Regardless of the random seed, the swap search should land both
  // medians correctly on the two-cluster instance.
  const auto inst = cluster_instance();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    EXPECT_LT(k_median(inst, 2, seed).connection_cost, 200.0);
  }
}

}  // namespace
}  // namespace esharing::solver
