#include "src/diff/explanation_registry.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"

namespace tsexplain {
namespace {

// Enumerates all non-empty subsets of `explain_by` with size <= max_order,
// as index lists into explain_by.
std::vector<std::vector<size_t>> AttrSubsets(size_t num_attrs,
                                             int max_order) {
  std::vector<std::vector<size_t>> subsets;
  std::vector<size_t> current;
  // Depth-first enumeration in lexicographic order.
  auto recurse = [&](auto&& self, size_t start) -> void {
    if (!current.empty()) subsets.push_back(current);
    if (static_cast<int>(current.size()) == max_order) return;
    for (size_t i = start; i < num_attrs; ++i) {
      current.push_back(i);
      self(self, i + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);
  return subsets;
}

// Splitmix64 finalizer: spreads a combined tuple hash over all 64 bits so
// the low bits index the open-addressing table well.
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Groups `count` keys of `width` values each by their exact value tuple
// (hash probe, then a full tuple compare), numbering tuples in first-seen
// order; `value(i, idx)` is value idx of key i. Returns the distinct
// tuples, flattened with stride `width`; `ids` (when non-null) receives
// each key's tuple number.
template <typename Value>
std::vector<ValueId> GroupTuples(size_t count, size_t width, Value value,
                                 std::vector<uint32_t>* ids) {
  TSE_CHECK_LT(count, static_cast<size_t>(UINT32_MAX));
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<ValueId> tuples;
  std::vector<uint64_t> hashes;  // per tuple, reused when the table grows
  std::vector<uint32_t> slots(64, kEmpty);
  std::vector<ValueId> key(width);
  if (ids != nullptr) ids->resize(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = 0;
    for (size_t idx = 0; idx < width; ++idx) {
      key[idx] = value(i, idx);
      h = (h ^ static_cast<uint32_t>(key[idx])) * 0x9e3779b97f4a7c15ULL;
    }
    h = Mix(h);
    size_t pos = h & (slots.size() - 1);
    while (slots[pos] != kEmpty) {
      const uint32_t t = slots[pos];
      if (hashes[t] == h &&
          std::equal(key.begin(), key.end(), tuples.begin() + t * width)) {
        break;
      }
      pos = (pos + 1) & (slots.size() - 1);
    }
    uint32_t tuple = slots[pos];
    if (tuple == kEmpty) {
      tuple = static_cast<uint32_t>(hashes.size());
      slots[pos] = tuple;
      tuples.insert(tuples.end(), key.begin(), key.end());
      hashes.push_back(h);
      if (hashes.size() * 2 > slots.size()) {  // keep the load <= 1/2
        slots.assign(slots.size() * 2, kEmpty);
        const size_t mask = slots.size() - 1;
        for (uint32_t t = 0; t < hashes.size(); ++t) {
          size_t p = hashes[t] & mask;
          while (slots[p] != kEmpty) p = (p + 1) & mask;
          slots[p] = t;
        }
      }
    }
    if (ids != nullptr) (*ids)[i] = tuple;
  }
  return tuples;
}

// Fills out->cells with resolve(cell) for every (tuple, subset) of
// out->tuples, tuple-major, subsets in AttrSubsets order. Stops with false
// at the first kInvalidExplId `resolve` returns.
template <typename Resolve>
bool ResolveTuples(const std::vector<AttrId>& explain_by, int max_order,
                   TupleCells* out, Resolve resolve) {
  const size_t width = explain_by.size();
  const std::vector<ValueId>& tuples = out->tuples;
  const auto subsets = AttrSubsets(width, max_order);
  out->cells_per_tuple = subsets.size();
  out->cells.clear();
  out->cells.reserve(tuples.size() / width * subsets.size());
  std::vector<Predicate> preds;
  for (size_t offset = 0; offset < tuples.size(); offset += width) {
    for (const auto& subset : subsets) {
      preds.clear();
      for (size_t idx : subset) {
        preds.push_back(Predicate{explain_by[idx], tuples[offset + idx]});
      }
      const ExplId id = resolve(Explanation::FromPredicates(preds));
      if (id == kInvalidExplId) return false;
      out->cells.push_back(id);
    }
  }
  return true;
}

}  // namespace

ExplanationRegistry ExplanationRegistry::Build(
    const Table& table, const std::vector<AttrId>& explain_by, int max_order,
    TupleCells* tuple_cells) {
  TupleCells local;
  TupleCells* grouped = tuple_cells != nullptr ? tuple_cells : &local;
  GroupRows(table, explain_by, /*first_row=*/0, grouped);
  return Enumerate(explain_by, max_order, grouped);
}

void ExplanationRegistry::GroupRows(const Table& table,
                                    const std::vector<AttrId>& explain_by,
                                    size_t first_row, TupleCells* out) {
  TSE_CHECK(!explain_by.empty());
  TSE_CHECK_LE(first_row, table.num_rows());
  std::vector<const ValueId*> columns;
  for (AttrId a : explain_by) {
    TSE_CHECK_GE(a, 0);
    TSE_CHECK_LT(static_cast<size_t>(a), table.schema().num_dimensions());
    columns.push_back(table.dim_column(a).data() + first_row);
  }
  out->first_row = first_row;
  out->tuples = GroupTuples(
      table.num_rows() - first_row, explain_by.size(),
      [&columns](size_t i, size_t idx) { return columns[idx][i]; },
      &out->row_tuple);
}

void ExplanationRegistry::ProjectTuples(
    const std::vector<ValueId>& superset_tuples,
    const std::vector<AttrId>& superset, const std::vector<AttrId>& explain_by,
    TupleCells* out) {
  TSE_CHECK(!explain_by.empty());
  TSE_CHECK(!superset.empty());
  // Position of each explain-by attribute within a superset tuple.
  std::vector<size_t> positions;
  for (AttrId a : explain_by) {
    const auto it = std::find(superset.begin(), superset.end(), a);
    TSE_CHECK(it != superset.end())
        << "attribute " << a << " is not in the superset";
    positions.push_back(static_cast<size_t>(it - superset.begin()));
  }
  // A projected tuple first occurs on the first row of the first superset
  // tuple that projects to it, and superset tuples are in first-row order,
  // so first-seen order here is first-row order in the table.
  const size_t width = superset.size();
  out->tuples = GroupTuples(
      superset_tuples.size() / width, explain_by.size(),
      [&](size_t i, size_t idx) {
        return superset_tuples[i * width + positions[idx]];
      },
      /*ids=*/nullptr);
}

ExplanationRegistry ExplanationRegistry::Enumerate(
    const std::vector<AttrId>& explain_by, int max_order,
    TupleCells* grouped) {
  TSE_CHECK(!explain_by.empty());
  TSE_CHECK_GE(max_order, 1);
  ExplanationRegistry reg;
  reg.explain_by_ = explain_by;
  reg.max_order_ = max_order;

  // Pass 1: find every occurring cell, numbering each at its first
  // (row, subset) occurrence. The row where a cell first occurs is the
  // first row of its tuple, and tuples are visited in first-row order, so
  // enumerating per distinct tuple assigns exactly the ids a per-row scan
  // would.
  ResolveTuples(explain_by, max_order, grouped, [&reg](Explanation cell) {
    auto [it, inserted] = reg.index_.try_emplace(
        std::move(cell), static_cast<ExplId>(reg.cells_.size()));
    if (inserted) reg.cells_.push_back(it->first);
    return it->second;
  });

  // Pass 2: every cell of order k >= 2 has k parents, one per dropped
  // predicate; order-1 cells hang off the root and have none.
  const size_t num_cells = reg.cells_.size();
  reg.parent_begin_.reserve(num_cells + 1);
  reg.parent_begin_.push_back(0);
  for (ExplId id = 0; id < static_cast<ExplId>(num_cells); ++id) {
    const Explanation& cell = reg.cells_[static_cast<size_t>(id)];
    if (cell.order() > 1) {
      for (const Predicate& p : cell.predicates()) {
        const ExplId parent_id = reg.Lookup(cell.WithoutAttr(p.attr));
        TSE_CHECK_NE(parent_id, kInvalidExplId)
            << "parent cell missing; enumeration must be downward closed";
        reg.parents_.push_back(parent_id);
      }
    }
    reg.parent_begin_.push_back(static_cast<uint32_t>(reg.parents_.size()));
  }
  return reg;
}

bool ExplanationRegistry::ResolveRows(const Table& table, size_t first_row,
                                      TupleCells* out) const {
  TSE_CHECK(!explain_by_.empty());
  GroupRows(table, explain_by_, first_row, out);
  return ResolveTuples(explain_by_, max_order_, out,
                       [this](const Explanation& cell) {
                         return Lookup(cell);
                       });
}

const Explanation& ExplanationRegistry::explanation(ExplId id) const {
  TSE_CHECK_GE(id, 0);
  TSE_CHECK_LT(static_cast<size_t>(id), cells_.size());
  return cells_[static_cast<size_t>(id)];
}

ExplId ExplanationRegistry::Lookup(const Explanation& e) const {
  auto it = index_.find(e);
  return it == index_.end() ? kInvalidExplId : it->second;
}

}  // namespace tsexplain
