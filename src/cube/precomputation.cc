#include "src/cube/precomputation.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace tsexplain {
namespace {

// docs/OBSERVABILITY.md: row scans (Build) and derivations (Project) of
// engine precomputations, whoever asked for them.
struct PrecomputationMetrics {
  Counter& builds =
      MetricRegistry::Global().GetCounter("engine.precomputation_builds");
  Counter& projections =
      MetricRegistry::Global().GetCounter("engine.projections");
  static PrecomputationMetrics& Get() {
    static PrecomputationMetrics metrics;
    return metrics;
  }
};

// Attribute subsets of size 1..min(max_order, width): the cells Build
// enumerates per distinct tuple.
size_t NumSubsets(size_t width, int max_order) {
  size_t total = 0;
  size_t choose = 1;  // C(width, k)
  for (size_t k = 1; k <= width && k <= static_cast<size_t>(max_order); ++k) {
    choose = choose * (width - k + 1) / k;
    total += choose;
  }
  return total;
}

size_t EffectiveOrder(size_t width, int max_order) {
  return std::min(width, static_cast<size_t>(max_order));
}

// Build, stopping with an empty Precomputation when the enumeration would
// visit more than `max_cells` (tuple, subset) pairs or the partials would
// take more than `max_bytes`.
Precomputation BuildWithin(const Table& table,
                           const std::vector<AttrId>& explain_by,
                           int max_order, int measure_idx, int threads,
                           Precomputation::Cost* cost, size_t max_cells,
                           size_t max_bytes) {
  TSE_CHECK_GE(max_order, 1);
  Timer timer;
  Precomputation out;
  out.measure_idx = measure_idx;
  TupleCells tuple_cells;
  ExplanationRegistry::GroupRows(table, explain_by, /*first_row=*/0,
                                 &tuple_cells);
  const size_t num_tuples = tuple_cells.tuples.size() / explain_by.size();
  if (num_tuples > max_cells / NumSubsets(explain_by.size(), max_order)) {
    if (cost != nullptr) cost->registry_ms += timer.ElapsedMs();
    return out;
  }
  auto registry = std::make_shared<const ExplanationRegistry>(
      ExplanationRegistry::Enumerate(explain_by, max_order, &tuple_cells));
  if (cost != nullptr) cost->registry_ms += timer.ElapsedMs();
  if (registry->num_explanations() >
      max_bytes / sizeof(AggState) / std::max<size_t>(
                                         table.num_time_buckets(), 1)) {
    return out;
  }
  timer.Restart();
  out.registry = std::move(registry);
  out.partials = CubePartials::Accumulate(
      table, out.registry->num_explanations(), tuple_cells, measure_idx,
      threads);
  out.tuples = std::move(tuple_cells.tuples);
  if (cost != nullptr) cost->cube_ms += timer.ElapsedMs();
  PrecomputationMetrics::Get().builds.Inc();
  return out;
}

// Bytes of the table's row columns: time, dimension codes, measures.
size_t ColumnBytes(const Table& table) {
  const Schema& schema = table.schema();
  return table.num_rows() *
         (sizeof(TimeId) + schema.num_dimensions() * sizeof(ValueId) +
          schema.num_measures() * sizeof(double));
}

}  // namespace

Precomputation Precomputation::Build(const Table& table,
                                     const std::vector<AttrId>& explain_by,
                                     int max_order, int measure_idx,
                                     int threads, Cost* cost) {
  return BuildWithin(table, explain_by, max_order, measure_idx, threads,
                     cost, std::numeric_limits<size_t>::max(),
                     std::numeric_limits<size_t>::max());
}

Precomputation Precomputation::BuildSuperset(const Table& table,
                                             int max_order, int measure_idx,
                                             int threads, Cost* cost) {
  const std::vector<std::string>& names = table.schema().dimension_names();
  std::vector<AttrId> all(names.size());
  std::iota(all.begin(), all.end(), 0);
  std::sort(all.begin(), all.end(), [&names](AttrId a, AttrId b) {
    return names[static_cast<size_t>(a)] < names[static_cast<size_t>(b)];
  });
  return BuildWithin(table, all, max_order, measure_idx, threads, cost,
                     /*max_cells=*/table.num_rows(),
                     /*max_bytes=*/2 * ColumnBytes(table));
}

bool Precomputation::Covers(const std::vector<AttrId>& explain_by,
                            int max_order) const {
  if (registry == nullptr) return false;
  const std::vector<AttrId>& have = registry->explain_by();
  for (AttrId a : explain_by) {
    if (std::find(have.begin(), have.end(), a) == have.end()) return false;
  }
  return EffectiveOrder(explain_by.size(), max_order) <=
         static_cast<size_t>(registry->max_order());
}

Precomputation Precomputation::Project(const std::vector<AttrId>& explain_by,
                                       int max_order, Cost* cost) const {
  TSE_CHECK(Covers(explain_by, max_order));
  const size_t width = explain_by.size();
  if (explain_by == registry->explain_by() &&
      EffectiveOrder(width, max_order) ==
          EffectiveOrder(width, registry->max_order())) {
    return *this;
  }
  Timer timer;
  TupleCells projected;
  ExplanationRegistry::ProjectTuples(tuples, registry->explain_by(),
                                     explain_by, &projected);
  Precomputation out;
  out.measure_idx = measure_idx;
  out.registry = std::make_shared<const ExplanationRegistry>(
      ExplanationRegistry::Enumerate(explain_by, max_order, &projected));
  out.tuples = std::move(projected.tuples);
  if (cost != nullptr) cost->registry_ms += timer.ElapsedMs();
  timer.Restart();
  // Each cell of the projection is a cell of this registry (Covers), whose
  // column holds exactly that slice's partials.
  std::vector<ExplId> cells(out.registry->num_explanations());
  for (size_t id = 0; id < cells.size(); ++id) {
    cells[id] =
        registry->Lookup(out.registry->explanation(static_cast<ExplId>(id)));
    TSE_CHECK_NE(cells[id], kInvalidExplId);
  }
  out.partials = partials->Gather(cells);
  if (cost != nullptr) cost->cube_ms += timer.ElapsedMs();
  PrecomputationMetrics::Get().projections.Inc();
  return out;
}

}  // namespace tsexplain
