#include "src/diff/top_cells.h"

#include <algorithm>

#include "src/common/check.h"

namespace tsexplain {
namespace {

// Ranks by gamma descending, then id ascending. A function object, so the
// selection algorithms inline it.
struct Better {
  bool operator()(const ScoredCell& a, const ScoredCell& b) const {
    if (a.gamma != b.gamma) return a.gamma > b.gamma;
    return a.id < b.id;
  }
};

}  // namespace

void TopCells::Reset(size_t need) {
  TSE_CHECK_GE(need, 1u);
  need_ = need;
  cells_.resize(need > kRankedLimit ? 2 * need : need);
  size_ = 0;
  floor_ = 0.0;
}

void TopCells::CutBack() {
  std::nth_element(cells_.begin(),
                   cells_.begin() + static_cast<std::ptrdiff_t>(need_) - 1,
                   cells_.begin() + static_cast<std::ptrdiff_t>(size_),
                   Better());
  size_ = need_;
  floor_ = cells_[need_ - 1].gamma;
}

void TopCells::Finish() {
  if (need_ <= kRankedLimit) return;  // kept ranked all along
  if (size_ > need_) CutBack();
  std::sort(cells_.begin(), cells_.begin() + static_cast<std::ptrdiff_t>(size_),
            Better());
}

void SelectTop(const std::vector<double>& gamma,
               const std::vector<bool>* selectable, TopCells* top) {
  for (size_t e = 0; e < gamma.size(); ++e) {
    if (!(gamma[e] > top->floor())) continue;
    if (selectable != nullptr && !(*selectable)[e]) continue;
    top->Push(gamma[e], static_cast<ExplId>(e));
  }
  top->Finish();
}

}  // namespace tsexplain
