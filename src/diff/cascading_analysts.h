// Cascading Analysts algorithm (Ruhl, Sundararajan, Yan, SIGMOD 2018),
// reimplemented from the description in the TSExplain paper (section 5.2,
// Figure 8): top-m NON-OVERLAPPING explanations maximizing the total diff
// score.
//
// The algorithm simulates an analyst's recursive drill-down. Each lattice
// cell (conjunction) with quota q decides between
//   (1) selecting itself as one explanation (consuming 1 quota and closing
//       its subtree, since descendants overlap it), or
//   (2) drilling down one unconstrained dimension and distributing the q
//       quota among the resulting child cells (siblings never overlap).
// Both choices are optimized exactly:
//   f(cell, q) = max( gamma(cell) [if q >= 1, cell != root],
//                     max_d distribute(children(cell, d), q) )
// where distribute is a small knapsack over children. One bottom-up pass
// (highest order first) fills f(cell, 1..m) for every cell with one
// knapsack pass per child edge; a cell of order k has k parents, so a call
// costs O(epsilon * beta-bar * m^2) per segment, matching the paper.
//
// The solver also exposes Best[q] = f(root, q) for every q <= m, which the
// guess-and-verify optimization needs for its termination test (Eq. 12).

#ifndef TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
#define TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/diff/explanation_registry.h"

namespace tsexplain {

/// Result of a top-m query: explanations sorted by descending score.
struct TopExplanations {
  /// Selected explanation ids, ranked by descending gamma (the paper's
  /// E*_m = [E^1, ..., E^m]); may hold fewer than m entries when the data
  /// cannot support m non-overlapping explanations with positive score.
  std::vector<ExplId> ids;
  /// gamma of each selected explanation (aligned with `ids`).
  std::vector<double> gammas;
  /// Best[q]: optimal total score using at most q explanations, for
  /// q = 0..m. Best.back() equals the sum of `gammas`.
  std::vector<double> best;
  /// Ideal DCG of this list on its own segment (Eq. 4), cached by the
  /// SegmentExplainer so distance computations do not recompute it.
  double idcg = 0.0;

  double TotalScore() const { return best.empty() ? 0.0 : best.back(); }
};

/// Reusable solver: owns scratch buffers sized to the registry so repeated
/// per-segment invocations do not allocate. Not thread-safe; create one per
/// thread.
class CascadingAnalysts {
 public:
  explicit CascadingAnalysts(const ExplanationRegistry& registry);

  /// Computes top-m non-overlapping explanations for the given per-cell
  /// scores. `gamma[e]` must be the diff score of cell e for the segment
  /// under analysis (module (a) output). Cells may be excluded from
  /// *selection* (but still drilled through) by passing `selectable`;
  /// nullptr means all cells are selectable.
  TopExplanations TopM(const std::vector<double>& gamma, int m,
                       const std::vector<bool>* selectable = nullptr);

  /// Same optimization restricted to a small candidate set: only
  /// `candidates` are selectable and the drill-down forest is rebuilt from
  /// the candidates plus their ancestor cells (the registry's parent
  /// table), so the cost is O(|candidates| * 2^beta-bar * m^2) independent
  /// of epsilon. This is what makes guess-and-verify (O1) pay off
  /// (section 5.3.1).
  TopExplanations TopMRestricted(const std::vector<double>& gamma, int m,
                                 const std::vector<ExplId>& candidates);

  /// Number of f(cell, q) values filled by the last call: every cell of
  /// its lattice times m (complexity instrumentation for the benches).
  size_t last_nodes_visited() const { return nodes_visited_; }

 private:
  // Drill-down forest over some registry cells, in CSR form. Node i stands
  // for cells[i]; the root is node cells.size(). Node i's groups are
  // [group_begin[i], group_begin[i + 1]), by attribute ascending; group
  // g's children are children[child_begin[g] .. child_begin[g + 1]), by
  // cell id ascending. That is the registry's order, which fixes the
  // knapsack's summation order and so the exact bits of every score.
  struct Lattice {
    std::vector<ExplId> cells;
    std::vector<bool> selectable;       // by node
    std::vector<uint32_t> group_begin;  // nodes + 2 entries
    std::vector<uint32_t> child_begin;  // groups + 1 entries
    std::vector<int32_t> children;
    std::vector<int32_t> bottom_up;     // every node, highest order first
  };
  struct Edge {
    int32_t parent;  // node
    AttrId attr;
    ExplId child;
  };

  // Rebuilds `lattice` over `cells` (all selectable, the first nodes in
  // order) plus every ancestor of them.
  void BuildLattice(const std::vector<ExplId>& cells, Lattice* lattice);
  // Fills f(node, 0..m) for every node bottom-up and reconstructs the
  // optimal selection at the root.
  TopExplanations Solve(const Lattice& lattice,
                        const std::vector<double>& gamma, int m);
  // Appends the cells the optimum f(node, q) selects to `out`.
  void Reconstruct(const Lattice& lattice, const std::vector<double>& gamma,
                   int32_t node, int q, std::vector<ExplId>* out);

  const ExplanationRegistry& registry_;
  Lattice full_;  // every registry cell; built by the first TopM call
  Lattice sub_;   // TopMRestricted's sub-lattice, rebuilt per call
  std::vector<int32_t> node_of_;  // cell -> node while building, else -1
  std::vector<Edge> edges_;
  int m_ = 0;
  std::vector<double> f_;   // f(node, q) at f_[node * (m_ + 1) + q]
  std::vector<double> dp_;  // knapsack rows
  std::vector<std::pair<int32_t, int>> picks_;  // (child node, quota)
  size_t nodes_visited_ = 0;
};

/// Convenience: ranks `candidate` ids by descending gamma with deterministic
/// id tie-breaking (used to order E*_m and by guess-and-verify).
void SortByGammaDesc(const std::vector<double>& gamma,
                     std::vector<ExplId>* ids);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
