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

// Groups rows [first_row, table.num_rows()) by their exact values on
// `explain_by` (hash probe, then a full tuple compare), numbering tuples in
// first-occurrence row order. Fills out->row_tuple and returns the distinct
// tuples, flattened with stride explain_by.size().
std::vector<ValueId> GroupRows(const Table& table,
                               const std::vector<AttrId>& explain_by,
                               size_t first_row, TupleCells* out) {
  TSE_CHECK_LE(first_row, table.num_rows());
  TSE_CHECK_LT(table.num_rows(), static_cast<size_t>(UINT32_MAX));
  const size_t width = explain_by.size();
  std::vector<const ValueId*> columns;
  for (AttrId attr : explain_by) {
    columns.push_back(table.dim_column(attr).data());
  }
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<ValueId> tuples;
  std::vector<uint64_t> hashes;  // per tuple, reused when the table grows
  std::vector<uint32_t> slots(64, kEmpty);
  std::vector<ValueId> key(width);
  out->first_row = first_row;
  out->row_tuple.resize(table.num_rows() - first_row);
  for (size_t row = first_row; row < table.num_rows(); ++row) {
    uint64_t h = 0;
    for (size_t idx = 0; idx < width; ++idx) {
      key[idx] = columns[idx][row];
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
    out->row_tuple[row - first_row] = tuple;
  }
  return tuples;
}

// Groups rows [first_row, ...) of `table` and fills out->cells with
// resolve(cell) for every (tuple, subset), tuple-major in first-occurrence
// order, subsets in AttrSubsets order. Stops with false at the first
// kInvalidExplId `resolve` returns.
template <typename Resolve>
bool GroupAndResolve(const Table& table,
                     const std::vector<AttrId>& explain_by, int max_order,
                     size_t first_row, TupleCells* out, Resolve resolve) {
  const size_t width = explain_by.size();
  const std::vector<ValueId> tuples =
      GroupRows(table, explain_by, first_row, out);
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
  TSE_CHECK(!explain_by.empty());
  TSE_CHECK_GE(max_order, 1);
  for (AttrId a : explain_by) {
    TSE_CHECK_GE(a, 0);
    TSE_CHECK_LT(static_cast<size_t>(a), table.schema().num_dimensions());
  }

  ExplanationRegistry reg;
  reg.explain_by_ = explain_by;
  reg.max_order_ = max_order;

  // Pass 1: find every occurring cell, numbering each at its first
  // (row, subset) occurrence. The row where a cell first occurs is the
  // first row of its tuple, and tuples are visited in first-row order, so
  // enumerating per distinct tuple assigns exactly the ids a per-row scan
  // would.
  TupleCells local;
  GroupAndResolve(table, explain_by, max_order, /*first_row=*/0,
                  tuple_cells != nullptr ? tuple_cells : &local,
                  [&reg](Explanation cell) {
                    auto [it, inserted] = reg.index_.try_emplace(
                        std::move(cell),
                        static_cast<ExplId>(reg.cells_.size()));
                    if (inserted) reg.cells_.push_back(it->first);
                    return it->second;
                  });

  // Pass 2: every cell of order k >= 2 has k parents, one per dropped
  // predicate, and is their child along the dropped attribute. Ids are
  // visited in ascending order, so every child list comes out sorted.
  const size_t num_cells = reg.cells_.size();
  reg.children_.resize(num_cells);
  reg.parent_begin_.reserve(num_cells + 1);
  reg.parent_begin_.push_back(0);
  auto add_child = [](std::vector<ChildGroup>* groups, AttrId attr,
                      ExplId child) {
    auto it = std::find_if(
        groups->begin(), groups->end(),
        [attr](const ChildGroup& group) { return group.attr == attr; });
    if (it == groups->end()) it = groups->insert(it, ChildGroup{attr, {}});
    it->children.push_back(child);
  };
  for (ExplId id = 0; id < static_cast<ExplId>(num_cells); ++id) {
    const Explanation& cell = reg.cells_[static_cast<size_t>(id)];
    for (const Predicate& p : cell.predicates()) {
      if (cell.order() == 1) {
        add_child(&reg.root_children_, p.attr, id);
        continue;
      }
      const ExplId parent_id = reg.Lookup(cell.WithoutAttr(p.attr));
      TSE_CHECK_NE(parent_id, kInvalidExplId)
          << "parent cell missing; enumeration must be downward closed";
      reg.parents_.push_back(parent_id);
      add_child(&reg.children_[static_cast<size_t>(parent_id)], p.attr, id);
    }
    reg.parent_begin_.push_back(static_cast<uint32_t>(reg.parents_.size()));
  }
  auto by_attr = [](const ChildGroup& a, const ChildGroup& b) {
    return a.attr < b.attr;
  };
  std::sort(reg.root_children_.begin(), reg.root_children_.end(), by_attr);
  for (std::vector<ChildGroup>& groups : reg.children_) {
    std::sort(groups.begin(), groups.end(), by_attr);
  }
  return reg;
}

bool ExplanationRegistry::ResolveRows(const Table& table, size_t first_row,
                                      TupleCells* out) const {
  TSE_CHECK(!explain_by_.empty());
  return GroupAndResolve(table, explain_by_, max_order_, first_row, out,
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

const std::vector<ChildGroup>& ExplanationRegistry::children(
    ExplId id) const {
  TSE_CHECK_GE(id, 0);
  TSE_CHECK_LT(static_cast<size_t>(id), children_.size());
  return children_[static_cast<size_t>(id)];
}

}  // namespace tsexplain
