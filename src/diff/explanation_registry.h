// Candidate-explanation enumeration and the drill-down lattice.
//
// Enumerates every conjunction of order <= max_order over the explain-by
// attributes that actually occurs in the relation (empty slices can never
// carry a diff score) and assigns each a dense ExplId. Also records each
// cell's parents -- the cells obtained by dropping one of its predicates --
// from which Cascading Analysts builds the drill-down lattice it walks
// (paper Figure 8).
//
// Cost: one hash probe per row groups the rows by their distinct explain-by
// tuple; the <= max_order attribute subsets are then enumerated once per
// DISTINCT tuple, not per row (Liquor: 574,464 rows, ~3,500 tuples). The
// row -> tuple index and each tuple's cell ids (TupleCells) are what the
// cube accumulates over, so an engine groups its rows exactly once. A
// registry over a subset of another build's attributes is derived from
// that build's distinct tuples alone (ProjectTuples), without the rows.

#ifndef TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_
#define TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/diff/explanation.h"
#include "src/table/table.h"

namespace tsexplain {

/// A run of table rows grouped by their exact explain-by value tuple, with
/// the registry cell of every (tuple, attribute subset). Tuples are
/// numbered in first-occurrence row order. Transient: built while an engine
/// is constructed (or a streaming bucket appended) and then dropped.
struct TupleCells {
  size_t first_row = 0;
  size_t cells_per_tuple = 0;        // number of attribute subsets
  std::vector<uint32_t> row_tuple;   // [row - first_row] -> tuple
  std::vector<ValueId> tuples;       // [tuple * |explain_by| + idx]
  std::vector<ExplId> cells;         // [tuple * cells_per_tuple + subset]

  /// The cells_per_tuple cell ids of the tuple of `row` (table row index).
  const ExplId* CellsOfRow(size_t row) const {
    return cells.data() + row_tuple[row - first_row] * cells_per_tuple;
  }
};

/// Immutable-after-build candidate set + parent table.
class ExplanationRegistry {
 public:
  /// Creates an empty registry (no candidates); assign from Build().
  ExplanationRegistry() = default;

  /// Enumerates all order-<=max_order conjunctions over `explain_by` that
  /// occur in `table`. max_order is the paper's beta-bar (default 3 there).
  /// Ids follow first occurrence in (row, subset) order. When `tuple_cells`
  /// is non-null it receives the grouping of all of `table`'s rows, so the
  /// cube built next need not group them again.
  static ExplanationRegistry Build(const Table& table,
                                   const std::vector<AttrId>& explain_by,
                                   int max_order,
                                   TupleCells* tuple_cells = nullptr);

  /// Build's first step: groups rows [first_row, table.num_rows()) by
  /// their values on `explain_by`, filling every field of `out` but the
  /// cells.
  static void GroupRows(const Table& table,
                        const std::vector<AttrId>& explain_by,
                        size_t first_row, TupleCells* out);

  /// Build's second step: enumerates the cells of `grouped->tuples`
  /// (first-row order) and links their parents; fills grouped->cells.
  static ExplanationRegistry Enumerate(const std::vector<AttrId>& explain_by,
                                       int max_order, TupleCells* grouped);

  /// The tuples GroupRows(table, explain_by) would find, derived from the
  /// distinct tuples of a grouping over `superset` (in first-row order)
  /// instead of from the rows: they are grouped by their explain-by
  /// projection in first-seen order. Enumerate over the result gives
  /// exactly Build's ids, parents and Lookup. Fills only out->tuples;
  /// every attribute of `explain_by` must be in `superset`.
  static void ProjectTuples(const std::vector<ValueId>& superset_tuples,
                            const std::vector<AttrId>& superset,
                            const std::vector<AttrId>& explain_by,
                            TupleCells* out);

  /// Groups rows [first_row, table.num_rows()) of `table` (which must share
  /// the build table's dictionaries) and resolves their cells. Returns
  /// false, leaving `out` unspecified, if some cell of those rows is not
  /// registered -- never the case for rows the registry was built on.
  bool ResolveRows(const Table& table, size_t first_row,
                   TupleCells* out) const;

  /// Total number of candidate explanations (the paper's epsilon).
  size_t num_explanations() const { return cells_.size(); }

  const Explanation& explanation(ExplId id) const;

  /// Id for a conjunction, or kInvalidExplId if it never occurs in data.
  ExplId Lookup(const Explanation& e) const;

  /// Parents of a cell in predicate order: parents(id)[i] is the cell
  /// without predicates()[i]. Empty for order-1 cells (their parent is the
  /// root). A [begin, end) range into one flat table.
  struct ParentRange {
    const ExplId* first;
    const ExplId* last;
    const ExplId* begin() const { return first; }
    const ExplId* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    ExplId operator[](size_t i) const { return first[i]; }
  };
  ParentRange parents(ExplId id) const {
    const size_t i = static_cast<size_t>(id);
    return ParentRange{parents_.data() + parent_begin_[i],
                       parents_.data() + parent_begin_[i + 1]};
  }

  const std::vector<AttrId>& explain_by() const { return explain_by_; }
  int max_order() const { return max_order_; }

 private:
  std::vector<AttrId> explain_by_;
  int max_order_ = 0;
  std::vector<Explanation> cells_;
  std::unordered_map<Explanation, ExplId, ExplanationHasher> index_;
  std::vector<uint32_t> parent_begin_;  // [id] -> offset into parents_
  std::vector<ExplId> parents_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_
