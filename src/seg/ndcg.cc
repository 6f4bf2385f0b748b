#include "src/seg/ndcg.h"

#include <algorithm>

#include "src/common/check.h"

namespace tsexplain {

double Dcg(const std::vector<double>& rectified_relevance) {
  double dcg = 0.0;
  for (size_t r = 0; r < rectified_relevance.size(); ++r) {
    dcg += rectified_relevance[r] / RankDiscount(r);
  }
  return dcg;
}

double NdcgFromTops(SegmentExplainer& explainer,
                    const TopExplanations& target_top, int target_a,
                    int target_b, const TopExplanations& source_top) {
  TSE_DCHECK(source_top.taus.size() == source_top.ids.size());
  // Ideal DCG: the target explained by its own ranked list (Eq. 4). The
  // rectifier is vacuous there (same segment on both sides).
  const double idcg = target_top.idcg;
  if (idcg <= kIdcgEps) return 1.0;  // flat target: trivially explained

  double dcg = 0.0;
  for (size_t r = 0; r < source_top.ids.size(); ++r) {
    const ExplId e = source_top.ids[r];
    const DiffScore on_target = explainer.Score(e, target_a, target_b);
    // Rectified relevance (Table 2): zero when the change effect flips.
    const double rectified =
        on_target.tau == source_top.taus[r] ? on_target.gamma : 0.0;
    dcg += rectified / RankDiscount(r);
  }
  return std::clamp(dcg / idcg, 0.0, 1.0);
}

double NdcgExplains(SegmentExplainer& explainer, int target_a, int target_b,
                    int source_a, int source_b) {
  const TopExplanations& target_top = explainer.TopFor(target_a, target_b);
  const TopExplanations& source_top = explainer.TopFor(source_a, source_b);
  return NdcgFromTops(explainer, target_top, target_a, target_b, source_top);
}

}  // namespace tsexplain
