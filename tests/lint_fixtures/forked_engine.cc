// Fixture: forked-engine rule (R8). A pipeline file other than
// src/pipeline/tsexplain.cc that runs its own segmentation DP must fire
// exactly once. Holding, passing and configuring the engine's parts must
// not fire, and neither may this comment's ExplanationRegistry::Build(...)
// or the string literal below.
#include <memory>

#include "src/seg/kseg_dp.h"
#include "src/seg/segment_explainer.h"

struct FixtureEngineParts {
  std::unique_ptr<tsexplain::SegmentExplainer> explainer;
  tsexplain::SegmentExplainer::Options options;
};

int FixtureForkedDp(const tsexplain::VarianceTable& table,
                    tsexplain::SegmentExplainer& explainer) {
  const char* note = "VarianceTable::Compute(calc, positions)";
  (void)note;
  (void)explainer;
  tsexplain::KSegmentationDp dp(table, 3);
  return dp.max_k();
}
