// Module (a)'s precomputation, shared by the engines that use it.
//
// The paper materializes every candidate explanation's aggregate once so
// that any diff score costs O(1) (section 5.2). That work -- the candidate
// registry and the cube's (sum, count) partials -- depends on the rows, the
// measure and the explain-by set, not on the aggregate function, the diff
// metric or the masks an engine applies (ExplanationCube only uses the
// aggregate to finalize). So one Precomputation serves every engine over
// the same (table, measure, explain-by set, order), and Project derives the
// precomputation of any explain-by subset from it without going back to the
// rows: a coarser cuboid of the data-cube lattice follows from a finer one
// (Harinarayan, Rajaraman and Ullman, SIGMOD 1996).
//
// A Precomputation is immutable once built; engines hold its registry and
// partials by shared_ptr, so it may be dropped while they live on.

#ifndef TSEXPLAIN_CUBE_PRECOMPUTATION_H_
#define TSEXPLAIN_CUBE_PRECOMPUTATION_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/cube/explanation_cube.h"
#include "src/diff/explanation_registry.h"
#include "src/table/table.h"

namespace tsexplain {

struct Precomputation {
  /// Time spent, split into the engine's two build layers
  /// ("diff.registry_build" and "cube.build").
  struct Cost {
    double registry_ms = 0.0;
    double cube_ms = 0.0;
  };

  std::shared_ptr<const ExplanationRegistry> registry;
  std::shared_ptr<const CubePartials> partials;
  /// The distinct explain-by tuples in first-row order, stride
  /// registry->explain_by().size() (TupleCells::tuples).
  std::vector<ValueId> tuples;
  /// The measure the partials sum (-1 = COUNT(*)).
  int measure_idx = -1;

  /// One row scan of `table`: groups the rows by their `explain_by`
  /// tuple, enumerates the order-<=max_order cells of the distinct tuples
  /// (ExplanationRegistry::Build's ids) and accumulates their partials of
  /// measure `measure_idx` (-1 = COUNT(*)). `cost` (nullable) is charged
  /// the time spent.
  static Precomputation Build(const Table& table,
                              const std::vector<AttrId>& explain_by,
                              int max_order, int measure_idx, int threads,
                              Cost* cost = nullptr);

  /// Build over every dimension of `table`, in name order, when that fits
  /// the table's budget; otherwise a Precomputation without registry or
  /// partials. The budget comes from the data: at most one enumerated
  /// (distinct tuple, attribute subset) pair per row, and partials of at
  /// most twice the bytes of the table's columns. The first bounds the
  /// enumeration, checked after the grouping; the second the memory a
  /// registration keeps resident, checked after the enumeration (the
  /// partials hold every cell at every time bucket, so a table of many
  /// sparse buckets fails it).
  static Precomputation BuildSuperset(const Table& table, int max_order,
                                      int measure_idx, int threads,
                                      Cost* cost = nullptr);

  /// Whether Project can derive (explain_by, max_order) from this: every
  /// attribute is one of this registry's, and every cell of that order is
  /// one of this registry's cells.
  bool Covers(const std::vector<AttrId>& explain_by, int max_order) const;

  /// The precomputation Build(table, explain_by, max_order, ...) returns,
  /// derived from this one (Covers must hold): the registry from the
  /// distinct tuples, the partials by gathering the matching cells' columns
  /// (bit-identical, ExplanationRegistry::ProjectTuples and
  /// CubePartials::Gather). When nothing differs it shares this one's
  /// registry and partials. `cost` (nullable) is charged the time spent.
  Precomputation Project(const std::vector<AttrId>& explain_by, int max_order,
                         Cost* cost = nullptr) const;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_PRECOMPUTATION_H_
