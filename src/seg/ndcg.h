// NDCG-based "how well does E*_m(P_j) explain P_i" (paper section 4.1.3).
//
// The segment P_i plays the role of the query, the ranked explanation list
// E*_m(P_j) the retrieved documents, and the rectified relevance
//   gamma-bar(E^r_j, P_i) = gamma(E^r_j, P_i) * 1[tau(E^r_j, P_j) ==
//                                                tau(E^r_j, P_i)]
// (Table 2) zeroes out explanations whose change effect flips between the
// two segments. DCG discounts by log2(rank + 1) (Eq. 3); the ideal DCG is
// P_i explained by its own list (Eq. 4, no rectification applies); NDCG is
// their ratio (Eq. 5), clamped into [0, 1].

#ifndef TSEXPLAIN_SEG_NDCG_H_
#define TSEXPLAIN_SEG_NDCG_H_

#include <array>
#include <cmath>
#include <vector>

#include "src/seg/segment_explainer.h"

namespace tsexplain {

/// log2(r + 2): Eq. 3's discount of the explanation at 0-based rank r
/// (the paper's log2(rank + 1)). The first ranks' values are computed once.
inline double RankDiscount(size_t r) {
  static const std::array<double, 32> kDiscounts = [] {
    std::array<double, 32> discounts{};
    for (size_t i = 0; i < discounts.size(); ++i) {
      discounts[i] = std::log2(static_cast<double>(i) + 2.0);
    }
    return discounts;
  }();
  return r < kDiscounts.size() ? kDiscounts[r]
                               : std::log2(static_cast<double>(r) + 2.0);
}

/// DCG of a ranked list of rectified relevances (Eq. 3): relevance[r] is
/// gamma-bar of the rank-(r+1) explanation.
double Dcg(const std::vector<double>& rectified_relevance);

/// Ideal DCG threshold below which a segment is considered unexplainable
/// (totally flat); such segments define NDCG = 1 (see PAPER.md, "Design
/// notes").
inline constexpr double kIdcgEps = 1e-12;

/// NDCG(P_target, E*_m(P_source)): how well the source segment's top
/// explanations explain the target segment. Both segments are [a, b] index
/// pairs into the explainer's time domain. Result is in [0, 1].
double NdcgExplains(SegmentExplainer& explainer, int target_a, int target_b,
                    int source_a, int source_b);

/// Same computation with the two cached explanation lists already in hand
/// (hot path for the distance library: avoids repeated cache lookups and
/// reuses the precomputed ideal DCG and the source list's own taus). Both
/// lists must come from `explainer`'s TopFor.
double NdcgFromTops(SegmentExplainer& explainer,
                    const TopExplanations& target_top, int target_a,
                    int target_b, const TopExplanations& source_top);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_NDCG_H_
