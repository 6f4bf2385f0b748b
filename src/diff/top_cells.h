// Top-k selection over one ascending sweep of cells: guess-and-verify's
// "sort the candidates by gamma and take a prefix" (paper section 5.3.1)
// without sorting all epsilon of them.
//
// A TopCells keeps the best need() cells a sweep offers, ranked by gamma
// descending, then id ascending, as contiguous (gamma, id) pairs. The sweep
// offers cells in ascending id order, so a later cell loses every gamma tie:
// it can only enter the result by beating the worst kept gamma, floor(),
// strictly. floor() starts at 0, so only positive gammas are kept. Two
// regimes, by size:
//  - need() <= kRankedLimit (guess-and-verify's default first rounds): the
//    kept cells stay ranked and each offer is inserted in place, so floor()
//    is exact from the moment need() cells are kept.
//  - larger: offers are buffered; when 2 * need() are buffered the buffer
//    is cut back to its best need() (nth_element) and floor() rises to the
//    worst kept gamma. O(offers) instead of O(offers * need()).
//
// Callers test `gamma > floor()` before Push. Two producers share this
// routine: the fused score-and-select kernels (src/cube/score_kernels.h),
// which fill the first round while they score, and SelectTop below, which
// rescans a materialized gamma vector for later rounds.

#ifndef TSEXPLAIN_DIFF_TOP_CELLS_H_
#define TSEXPLAIN_DIFF_TOP_CELLS_H_

#include <cstddef>
#include <vector>

#include "src/diff/explanation.h"

namespace tsexplain {

/// One cell of a selection: its gamma next to its id.
struct ScoredCell {
  double gamma;
  ExplId id;
};

class TopCells {
 public:
  static constexpr size_t kRankedLimit = 64;

  /// Starts a new sweep keeping the best `need` (>= 1) cells.
  void Reset(size_t need);

  size_t need() const { return need_; }

  /// The gamma a later cell must beat strictly to be kept.
  double floor() const { return floor_; }

  /// Offers cell `id` (ids ascending within a sweep, gamma > floor()).
  void Push(double gamma, ExplId id) {
    if (need_ > kRankedLimit) {
      cells_[size_++] = ScoredCell{gamma, id};
      if (size_ == cells_.size()) CutBack();
      return;
    }
    // The cell goes after every kept cell of gamma >= its own (they rank
    // first: equal gammas rank by id); when full, the worst drops out.
    size_t at = size_ < need_ ? size_++ : need_ - 1;
    for (; at > 0 && cells_[at - 1].gamma < gamma; --at) {
      cells_[at] = cells_[at - 1];
    }
    cells_[at] = ScoredCell{gamma, id};
    if (size_ == need_) floor_ = cells_[need_ - 1].gamma;
  }

  /// Ends the sweep: keeps the best min(need(), offered) cells, ranked.
  void Finish();

  size_t size() const { return size_; }
  const ScoredCell& operator[](size_t i) const { return cells_[i]; }

 private:
  // Keeps the best need_ buffered cells (unordered) and raises floor_.
  void CutBack();

  // need_ slots kept ranked, or a buffer of 2 * need_ (see above).
  std::vector<ScoredCell> cells_;
  size_t size_ = 0;
  size_t need_ = 0;
  double floor_ = 0.0;
};

/// One sweep over `gamma`: offers every cell that is selectable (nullptr =
/// all) and beats top->floor(), then finishes. `top` must be Reset.
void SelectTop(const std::vector<double>& gamma,
               const std::vector<bool>* selectable, TopCells* top);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_TOP_CELLS_H_
