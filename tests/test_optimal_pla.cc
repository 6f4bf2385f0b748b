// Tests for the optimal-PLA ablation baseline.

#include <gtest/gtest.h>

#include "src/baselines/bottom_up.h"
#include "src/baselines/optimal_pla.h"
#include "src/common/rng.h"

namespace tsexplain {
namespace {

std::vector<double> PiecewiseLinear(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(60);
  double level = 0.0;
  for (int t = 1; t < 60; ++t) {
    const double slope = t <= 20 ? 2.0 : (t <= 40 ? -1.5 : 3.0);
    level += slope;
    v[static_cast<size_t>(t)] = level + rng.Gaussian(0.0, 0.2);
  }
  return v;
}

TEST(OptimalPla, FindsExactBreakpointsOnCleanData) {
  std::vector<double> v(60);
  double level = 0.0;
  for (int t = 1; t < 60; ++t) {
    level += t <= 20 ? 2.0 : (t <= 40 ? -1.5 : 3.0);
    v[static_cast<size_t>(t)] = level;
  }
  EXPECT_EQ(OptimalPlaSegment(v, 3), (std::vector<int>{0, 20, 40, 59}));
}

TEST(OptimalPla, NeverWorseThanBottomUp) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<double> v = PiecewiseLinear(seed);
    for (int k : {2, 3, 5}) {
      const double optimal = PlaTotalSse(v, OptimalPlaSegment(v, k));
      const double greedy = PlaTotalSse(v, BottomUpSegment(v, k));
      EXPECT_LE(optimal, greedy + 1e-9) << "seed " << seed << " k " << k;
    }
  }
}

TEST(OptimalPla, MoreSegmentsNeverIncreaseError) {
  const std::vector<double> v = PiecewiseLinear(4);
  double prev = PlaTotalSse(v, OptimalPlaSegment(v, 1));
  for (int k = 2; k <= 8; ++k) {
    const double current = PlaTotalSse(v, OptimalPlaSegment(v, k));
    EXPECT_LE(current, prev + 1e-9);
    prev = current;
  }
}

TEST(OptimalPla, ClampsOversizedK) {
  const std::vector<double> v{1.0, 2.0, 7.0, 3.0};
  EXPECT_EQ(OptimalPlaSegment(v, 99).size(), 4u);  // n-1 = 3 segments
}

}  // namespace
}  // namespace tsexplain
