// Unit tests for candidate enumeration + the drill-down lattice.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/liquor_sim.h"
#include "src/diff/explanation_registry.h"

namespace tsexplain {
namespace {

// Two attributes A (2 values) x B (2 values), all combos present.
Table MakeDenseTable() {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (const char* a : {"a1", "a2"}) {
    for (const char* b : {"b1", "b2"}) {
      table.AppendRow(0, {a, b}, {1.0});
    }
  }
  return table;
}

TEST(Registry, DenseEnumerationCount) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  // Order 1: 2 + 2 = 4; order 2: 2 x 2 = 4 -> epsilon = 8.
  EXPECT_EQ(reg.num_explanations(), 8u);
}

TEST(Registry, MaxOrderOneOnlySingles) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 1);
  EXPECT_EQ(reg.num_explanations(), 4u);
  for (ExplId e = 0; e < 4; ++e) {
    EXPECT_EQ(reg.explanation(e).order(), 1);
  }
}

TEST(Registry, SparseCombosOnlyWhenCoOccurring) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a1", "b1"}, {1.0});
  table.AppendRow(0, {"a2", "b2"}, {1.0});
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  // Singles: a1, a2, b1, b2; pairs: only (a1,b1) and (a2,b2).
  EXPECT_EQ(reg.num_explanations(), 6u);
  const ValueId a1 = table.dictionary(0).Lookup("a1");
  const ValueId b2 = table.dictionary(1).Lookup("b2");
  const auto cross = Explanation::FromPredicates(
      {Predicate{0, a1}, Predicate{1, b2}});
  EXPECT_EQ(reg.Lookup(cross), kInvalidExplId);
}

TEST(Registry, ExplainBySubsetOfDimensions) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {1}, 3);
  EXPECT_EQ(reg.num_explanations(), 2u);  // only B's two values
}

TEST(Registry, RootChildrenGroupedByAttribute) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const auto& groups = reg.root_children();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].attr, 0);
  EXPECT_EQ(groups[1].attr, 1);
  EXPECT_EQ(groups[0].children.size(), 2u);
  EXPECT_EQ(groups[1].children.size(), 2u);
  for (const ChildGroup& g : groups) {
    for (ExplId child : g.children) {
      EXPECT_EQ(reg.explanation(child).order(), 1);
    }
  }
}

TEST(Registry, ChildExtendsParentByOnePredicate) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    const Explanation& parent = reg.explanation(id);
    for (const ChildGroup& group : reg.children(id)) {
      ValueId unused;
      EXPECT_FALSE(parent.TryGetValue(group.attr, &unused))
          << "drill-down attr must be unconstrained in the parent";
      for (ExplId child_id : group.children) {
        const Explanation& child = reg.explanation(child_id);
        EXPECT_EQ(child.order(), parent.order() + 1);
        EXPECT_TRUE(child.WithoutAttr(group.attr) == parent);
      }
    }
  }
}

TEST(Registry, EveryNonRootCellReachableFromRoot) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  std::set<ExplId> reachable;
  std::vector<ExplId> stack;
  for (const ChildGroup& g : reg.root_children()) {
    for (ExplId c : g.children) stack.push_back(c);
  }
  while (!stack.empty()) {
    const ExplId id = stack.back();
    stack.pop_back();
    if (!reachable.insert(id).second) continue;
    for (const ChildGroup& g : reg.children(id)) {
      for (ExplId c : g.children) stack.push_back(c);
    }
  }
  EXPECT_EQ(reachable.size(), reg.num_explanations());
}

TEST(Registry, MaxOrderCellsAreLeaves) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    if (reg.explanation(id).order() == 2) {
      EXPECT_TRUE(reg.children(id).empty());
    }
  }
}

TEST(Registry, LookupRoundTrip) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    EXPECT_EQ(reg.Lookup(reg.explanation(id)), id);
  }
}

TEST(Registry, ThreeAttributeTripleEnumeration) {
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a", "b", "c"}, {1.0});
  const auto reg3 = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  // One row: 3 singles + 3 pairs + 1 triple = 7.
  EXPECT_EQ(reg3.num_explanations(), 7u);
  const auto reg2 = ExplanationRegistry::Build(table, {0, 1, 2}, 2);
  EXPECT_EQ(reg2.num_explanations(), 6u);
}

// Reference registry: the original per-row enumeration. Pass 1 walks every
// (row, subset) pair in row-major order and numbers each cell at its first
// occurrence; pass 2 links each cell to the parents obtained by dropping
// one predicate. Build must reproduce its ids and lattice exactly.
struct ReferenceRegistry {
  std::vector<Explanation> cells;
  std::unordered_map<Explanation, ExplId, ExplanationHasher> index;
  std::vector<ChildGroup> root_children;
  std::vector<std::vector<ChildGroup>> children;
};

std::vector<std::vector<size_t>> ReferenceSubsets(size_t num_attrs,
                                                  int max_order) {
  std::vector<std::vector<size_t>> subsets;
  std::vector<size_t> current;
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

std::vector<ChildGroup> MaterializeGroups(
    std::unordered_map<AttrId, std::vector<ExplId>>& groups) {
  std::vector<ChildGroup> out;
  for (auto& [attr, children] : groups) {
    std::sort(children.begin(), children.end());
    out.push_back(ChildGroup{attr, std::move(children)});
  }
  std::sort(out.begin(), out.end(),
            [](const ChildGroup& a, const ChildGroup& b) {
              return a.attr < b.attr;
            });
  return out;
}

ReferenceRegistry BuildReference(const Table& table,
                                 const std::vector<AttrId>& explain_by,
                                 int max_order) {
  ReferenceRegistry ref;
  const auto subsets = ReferenceSubsets(explain_by.size(), max_order);
  std::vector<Predicate> preds;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (const auto& subset : subsets) {
      preds.clear();
      for (size_t idx : subset) {
        const AttrId attr = explain_by[idx];
        preds.push_back(Predicate{attr, table.dim(row, attr)});
      }
      auto [it, inserted] = ref.index.try_emplace(
          Explanation::FromPredicates(preds),
          static_cast<ExplId>(ref.cells.size()));
      if (inserted) ref.cells.push_back(it->first);
    }
  }
  std::vector<std::unordered_map<AttrId, std::vector<ExplId>>> tmp(
      ref.cells.size());
  std::unordered_map<AttrId, std::vector<ExplId>> root_tmp;
  for (ExplId id = 0; id < static_cast<ExplId>(ref.cells.size()); ++id) {
    const Explanation& cell = ref.cells[static_cast<size_t>(id)];
    for (const Predicate& p : cell.predicates()) {
      if (cell.order() == 1) {
        root_tmp[p.attr].push_back(id);
      } else {
        const ExplId parent = ref.index.at(cell.WithoutAttr(p.attr));
        tmp[static_cast<size_t>(parent)][p.attr].push_back(id);
      }
    }
  }
  ref.root_children = MaterializeGroups(root_tmp);
  for (auto& groups : tmp) ref.children.push_back(MaterializeGroups(groups));
  return ref;
}

void ExpectSameGroups(const std::vector<ChildGroup>& got,
                      const std::vector<ChildGroup>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got[g].attr, want[g].attr) << where;
    EXPECT_EQ(got[g].children, want[g].children) << where;
  }
}

void ExpectMatchesReference(const Table& table,
                            const std::vector<AttrId>& explain_by,
                            int max_order, const std::string& label) {
  const ReferenceRegistry ref = BuildReference(table, explain_by, max_order);
  const auto reg = ExplanationRegistry::Build(table, explain_by, max_order);
  ASSERT_EQ(reg.num_explanations(), ref.cells.size()) << label;
  for (ExplId id = 0; id < static_cast<ExplId>(ref.cells.size()); ++id) {
    const Explanation& want = ref.cells[static_cast<size_t>(id)];
    ASSERT_TRUE(reg.explanation(id) == want) << label << " id " << id;
    EXPECT_EQ(reg.Lookup(want), id) << label;
    ExpectSameGroups(reg.children(id), ref.children[static_cast<size_t>(id)],
                     label + " children of " + std::to_string(id));
  }
  ExpectSameGroups(reg.root_children(), ref.root_children,
                   label + " root");
}

// Random table over four dimensions whose rows draw from a small pool of
// tuples (heavy repetition, skewed toward the first few), spread over
// several time buckets, plus one tuple first seen on the very last row.
Table MakeRepetitiveTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  Table table(Schema("t", {"A", "B", "C", "D"}, {"m"}));
  for (int t = 0; t < 5; ++t) table.AddTimeBucket(std::to_string(t));
  std::vector<std::vector<std::string>> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back({"a" + std::to_string(rng.UniformInt(0, 3)),
                    "b" + std::to_string(rng.UniformInt(0, 4)),
                    "c" + std::to_string(rng.UniformInt(0, 2)),
                    "d" + std::to_string(rng.UniformInt(0, 5))});
  }
  for (size_t row = 0; row < num_rows; ++row) {
    const int64_t hi = rng.UniformInt(0, 1) == 0 ? 3 : 23;
    const auto& tuple = pool[static_cast<size_t>(rng.UniformInt(0, hi))];
    table.AppendRow(static_cast<TimeId>(row * 5 / num_rows), tuple,
                    {rng.Uniform(0.0, 10.0)});
  }
  table.AppendRow(4, {"a_late", "b0", "c_late", "d0"}, {1.0});
  return table;
}

TEST(RegistryIdOrder, MatchesPerRowEnumerationOnRandomTables) {
  const std::vector<std::vector<AttrId>> explain_bys = {
      {0}, {0, 1}, {2, 0, 1}, {3, 1}, {1, 3, 0, 2}, {0, 1, 2, 3}};
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Table table = MakeRepetitiveTable(seed, 400);
    for (const auto& explain_by : explain_bys) {
      for (int order = 1; order <= static_cast<int>(explain_by.size());
           ++order) {
        std::string label = "seed " + std::to_string(seed) + " order " +
                            std::to_string(order) + " explain_by";
        for (AttrId a : explain_by) label += " " + std::to_string(a);
        ExpectMatchesReference(table, explain_by, order, label);
      }
    }
  }
}

TEST(RegistryIdOrder, MatchesPerRowEnumerationOnSingleRowSingleBucket) {
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a", "b", "c"}, {1.0});
  for (const std::vector<AttrId>& explain_by :
       std::vector<std::vector<AttrId>>{{0}, {2, 0}, {2, 0, 1}}) {
    for (int order = 1; order <= 3; ++order) {
      ExpectMatchesReference(table, explain_by, order, "single row");
    }
  }
}

TEST(RegistryIdOrder, MatchesPerRowEnumerationWithManyDistinctTuples) {
  // 8,000 distinct tuples (the grouping table grows many times), each
  // seen twice, the second pass in a different order.
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  table.AddTimeBucket("1");
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 8000; ++i) {
      const int k = pass == 0 ? i : (i * 7919) % 8000;
      table.AppendRow(pass,
                      {"a" + std::to_string(k % 20),
                       "b" + std::to_string((k / 20) % 20),
                       "c" + std::to_string(k / 400)},
                      {1.0});
    }
  }
  ExpectMatchesReference(table, {1, 2, 0}, 3, "many tuples");
  TupleCells tuple_cells;
  ExplanationRegistry::Build(table, {1, 2, 0}, 3, &tuple_cells);
  EXPECT_EQ(tuple_cells.cells.size(), 8000u * tuple_cells.cells_per_tuple);
}

TEST(RegistryTupleCells, EachRowResolvesToItsOwnCells) {
  const Table table = MakeRepetitiveTable(21, 300);
  const std::vector<AttrId> explain_by = {2, 0, 1};
  TupleCells cells;
  const auto reg = ExplanationRegistry::Build(table, explain_by, 2, &cells);
  ASSERT_EQ(cells.first_row, 0u);
  ASSERT_EQ(cells.row_tuple.size(), table.num_rows());
  const auto subsets = ReferenceSubsets(explain_by.size(), 2);
  ASSERT_EQ(cells.cells_per_tuple, subsets.size());
  uint32_t next_tuple = 0;  // tuples are numbered in first-row order
  std::vector<size_t> first_row_of_tuple;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    const uint32_t tuple = cells.row_tuple[row];
    ASSERT_LE(tuple, next_tuple);
    if (tuple == next_tuple) {
      first_row_of_tuple.push_back(row);
      ++next_tuple;
    }
    for (AttrId a : explain_by) {  // same tuple <=> same values
      EXPECT_EQ(table.dim(row, a), table.dim(first_row_of_tuple[tuple], a));
    }
    for (size_t s = 0; s < subsets.size(); ++s) {
      std::vector<Predicate> preds;
      for (size_t idx : subsets[s]) {
        preds.push_back(Predicate{explain_by[idx],
                                  table.dim(row, explain_by[idx])});
      }
      EXPECT_EQ(cells.CellsOfRow(row)[s],
                reg.Lookup(Explanation::FromPredicates(preds)));
    }
  }
  EXPECT_EQ(cells.cells.size(), next_tuple * cells.cells_per_tuple);

  // Resolving against the built registry reproduces the same grouping,
  // for the whole table and for a suffix of it.
  TupleCells all;
  ASSERT_TRUE(reg.ResolveRows(table, 0, &all));
  EXPECT_EQ(all.row_tuple, cells.row_tuple);
  EXPECT_EQ(all.cells, cells.cells);
  TupleCells tail;
  ASSERT_TRUE(reg.ResolveRows(table, 250, &tail));
  EXPECT_EQ(tail.first_row, 250u);
  EXPECT_EQ(tail.row_tuple.size(), table.num_rows() - 250);
  for (size_t row = 250; row < table.num_rows(); ++row) {
    for (size_t s = 0; s < subsets.size(); ++s) {
      EXPECT_EQ(tail.CellsOfRow(row)[s], cells.CellsOfRow(row)[s]);
    }
  }
}

TEST(RegistryTupleCells, ResolveRowsRejectsUnregisteredCells) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a1", "b1"}, {1.0});
  table.AppendRow(0, {"a2", "b2"}, {1.0});
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  table.AddTimeBucket("1");
  table.AppendRow(1, {"a2", "b2"}, {1.0});
  table.AppendRow(1, {"a1", "b1"}, {1.0});
  TupleCells known;
  ASSERT_TRUE(reg.ResolveRows(table, 2, &known));
  EXPECT_EQ(known.cells.size(), 2u * known.cells_per_tuple);
  // Both values are known, but the pair (a1, b2) never occurred.
  table.AppendRow(1, {"a1", "b2"}, {1.0});
  TupleCells unknown;
  EXPECT_FALSE(reg.ResolveRows(table, 2, &unknown));
}

// parents(id)[i] is the cell without predicates()[i]; order-1 cells have
// none.
void ExpectParentTable(const ExplanationRegistry& reg,
                       const std::string& label) {
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    const Explanation& cell = reg.explanation(id);
    const auto parents = reg.parents(id);
    if (cell.order() == 1) {
      EXPECT_EQ(parents.size(), 0u) << label << " id " << id;
      continue;
    }
    ASSERT_EQ(parents.size(), cell.predicates().size()) << label;
    for (size_t i = 0; i < parents.size(); ++i) {
      EXPECT_EQ(parents[i],
                reg.Lookup(cell.WithoutAttr(cell.predicates()[i].attr)))
          << label << " id " << id << " parent " << i;
    }
  }
}

TEST(RegistryParents, MatchLookupWithoutEachPredicate) {
  const Table table = MakeRepetitiveTable(31, 400);
  for (const std::vector<AttrId>& explain_by :
       std::vector<std::vector<AttrId>>{{0}, {3, 1}, {1, 3, 0, 2}}) {
    for (int order = 1; order <= static_cast<int>(explain_by.size());
         ++order) {
      ExpectParentTable(
          ExplanationRegistry::Build(table, explain_by, order),
          "order " + std::to_string(order));
    }
  }
  const auto liquor = MakeLiquorTable();
  ExpectParentTable(ExplanationRegistry::Build(*liquor, {0, 1, 2, 3}, 3),
                    "liquor");
}

uint64_t Fnv1a(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Pins the cell sequence (ids in order, each as its predicate list) of
// every Liquor explain-by set of two or more attributes at order 3. Any
// change to the id assignment order changes this hash.
TEST(RegistryIdOrder, LiquorGoldenCellSequence) {
  const auto table = MakeLiquorTable();
  ASSERT_EQ(table->schema().num_dimensions(), 4u);
  uint64_t hash = 1469598103934665603ULL;
  size_t subsets = 0;
  for (uint32_t mask = 1; mask < 16; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    std::vector<AttrId> explain_by;
    for (AttrId a = 0; a < 4; ++a) {
      if (mask & (1u << a)) explain_by.push_back(a);
    }
    ++subsets;
    const auto reg = ExplanationRegistry::Build(*table, explain_by, 3);
    hash = Fnv1a(hash, reg.num_explanations());
    for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
         ++id) {
      const Explanation& cell = reg.explanation(id);
      hash = Fnv1a(hash, static_cast<uint64_t>(cell.order()));
      for (const Predicate& p : cell.predicates()) {
        hash = Fnv1a(hash, static_cast<uint64_t>(p.attr));
        hash = Fnv1a(hash, static_cast<uint64_t>(p.value));
      }
    }
  }
  EXPECT_EQ(subsets, 11u);
  EXPECT_EQ(hash, 0x9f9320b3f469e4edULL);
}

}  // namespace
}  // namespace tsexplain
