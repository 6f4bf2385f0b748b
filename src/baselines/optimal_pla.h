// Exact L2-optimal piecewise-linear segmentation via dynamic programming.
//
// Bottom-Up is a greedy heuristic; this solves
// min over K-segmentations of sum of per-segment least-squares SSE exactly
// (O(n^2 K) with the SseOracle's O(1) segment costs). It is used by the
// ablation benches to show that TSExplain's advantage on mix-change data
// is NOT a heuristic artifact: even the optimal shape-based segmentation
// cannot see cuts that leave the aggregate's shape unchanged.

#ifndef TSEXPLAIN_BASELINES_OPTIMAL_PLA_H_
#define TSEXPLAIN_BASELINES_OPTIMAL_PLA_H_

#include <vector>

namespace tsexplain {

/// Exact minimum-SSE segmentation into `k` pieces. Returns cut positions
/// including 0 and n-1 (k clamped to n-1).
std::vector<int> OptimalPlaSegment(const std::vector<double>& values, int k);

/// Total least-squares SSE of a segmentation scheme (helper for tests and
/// ablations).
double PlaTotalSse(const std::vector<double>& values,
                   const std::vector<int>& cuts);

}  // namespace tsexplain

#endif  // TSEXPLAIN_BASELINES_OPTIMAL_PLA_H_
