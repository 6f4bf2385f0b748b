// Unit tests for the explanation cube (module (a)) + canonical mask.

#include <gtest/gtest.h>

#include <string>

#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/table/group_by.h"

namespace tsexplain {
namespace {

Table MakeTable() {
  Table table(Schema("date", {"state", "age"}, {"cases"}));
  for (const char* d : {"d0", "d1", "d2", "d3"}) table.AddTimeBucket(d);
  // state x age slices with distinct trajectories.
  const double ny_young[] = {10, 20, 40, 80};
  const double ny_old[] = {5, 5, 6, 7};
  const double ca_young[] = {8, 7, 6, 5};
  const double ca_old[] = {1, 2, 3, 4};
  for (int t = 0; t < 4; ++t) {
    table.AppendRow(t, {"NY", "young"}, {ny_young[t]});
    table.AppendRow(t, {"NY", "old"}, {ny_old[t]});
    table.AppendRow(t, {"CA", "young"}, {ca_young[t]});
    table.AppendRow(t, {"CA", "old"}, {ca_old[t]});
  }
  return table;
}

TEST(Cube, SliceSeriesMatchesGroupByEngine) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  ASSERT_EQ(cube.num_explanations(), reg.num_explanations());

  // Property: for EVERY candidate cell, the cube slice equals a fresh
  // group-by with the same conjunction.
  for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations()); ++e) {
    std::vector<DimPredicate> conj;
    for (const Predicate& p : reg.explanation(e).predicates()) {
      conj.push_back(DimPredicate{p.attr, p.value});
    }
    const TimeSeries expected =
        GroupByTime(t, AggregateFunction::kSum, 0, conj);
    const TimeSeries actual = cube.SliceSeries(e);
    ASSERT_EQ(actual.values.size(), expected.values.size());
    for (size_t i = 0; i < expected.values.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual.values[i], expected.values[i])
          << reg.explanation(e).ToString(t) << " @ " << i;
    }
  }
}

TEST(Cube, SharedGroupingBuildsTheSameCube) {
  // Enough rows for the parallel accumulation path; explain_by out of
  // schema order.
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  for (int t = 0; t < 16; ++t) table.AddTimeBucket(std::to_string(t));
  for (int row = 0; row < 6000; ++row) {
    table.AppendRow(row % 16,
                    {"a" + std::to_string(row % 7),
                     "b" + std::to_string((row / 3) % 5),
                     "c" + std::to_string((row * 7) % 11)},
                    {0.25 * (row % 13) + 0.1});
  }
  TupleCells tuple_cells;
  const auto reg = ExplanationRegistry::Build(table, {2, 0, 1}, 2,
                                              &tuple_cells);
  for (int threads : {1, 4}) {
    const ExplanationCube shared(table, reg, tuple_cells,
                                 AggregateFunction::kAvg, 0, threads);
    const ExplanationCube standalone(table, reg, AggregateFunction::kAvg, 0,
                                     threads);
    ASSERT_EQ(shared.n(), standalone.n());
    for (size_t t = 0; t < shared.n(); ++t) {
      EXPECT_EQ(shared.Overall(t), standalone.Overall(t));
      for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations());
           ++e) {
        ASSERT_EQ(shared.SliceValue(e, t), standalone.SliceValue(e, t))
            << "cell " << e << " t " << t << " threads " << threads;
      }
    }
  }
}

TEST(Cube, OverallEqualsGroupBy) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const TimeSeries expected = GroupByTime(t, AggregateFunction::kSum, 0);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(cube.Overall(i), expected.values[i]);
  }
}

TEST(Cube, OrderOneSlicesPartitionOverall) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  for (size_t time = 0; time < cube.n(); ++time) {
    double state_sum = 0.0;
    for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations());
         ++e) {
      const Explanation& cell = reg.explanation(e);
      if (cell.order() == 1 && cell.predicates()[0].attr == 0) {
        state_sum += cube.SliceValue(e, time);
      }
    }
    EXPECT_DOUBLE_EQ(state_sum, cube.Overall(time));
  }
}

TEST(Cube, ScoreMatchesManualDefinition) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const ValueId ny = t.dictionary(0).Lookup("NY");
  const ExplId e =
      reg.Lookup(Explanation::FromPredicates({Predicate{0, ny}}));
  ASSERT_NE(e, kInvalidExplId);

  // Segment d0 -> d3. Overall: 24 -> 96; without NY: 9 -> 9.
  const DiffScore s =
      cube.Score(DiffMetricKind::kAbsoluteChange, e, 0, 3);
  // Delta = 72; Delta without NY = 0 -> gamma = 72, tau = +1.
  EXPECT_DOUBLE_EQ(s.gamma, 72.0);
  EXPECT_EQ(s.tau, 1);
}

TEST(Cube, CountAggregateWorksWithoutMeasure) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kCount, -1);
  EXPECT_DOUBLE_EQ(cube.Overall(0), 4.0);  // 4 rows per bucket
}

TEST(Cube, AvgAggregate) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kAvg, 0);
  EXPECT_DOUBLE_EQ(cube.Overall(0), 6.0);  // (10+5+8+1)/4
}

TEST(Cube, SmoothInPlacePreservesDecomposability) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  cube.SmoothInPlace(2);
  // After smoothing, order-1 slices must still partition the overall.
  for (size_t time = 0; time < cube.n(); ++time) {
    double sum = 0.0;
    for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations());
         ++e) {
      sum += cube.SliceValue(e, time);
    }
    EXPECT_NEAR(sum, cube.Overall(time), 1e-9);
  }
  // Smoothed value at t1 is the average of raw t0 and t1: (24+34)/2.
  EXPECT_NEAR(cube.Overall(1), 29.0, 1e-9);
}

TEST(Cube, AppendBucketExtendsSeries) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const size_t n_before = cube.n();
  std::vector<AggState> slices(reg.num_explanations());
  slices[0] = AggState{100.0, 2.0};
  slices[1] = AggState{50.0, 2.0};
  cube.AppendBucket(AggState{150.0, 4.0}, slices, "d4");
  EXPECT_EQ(cube.n(), n_before + 1);
  EXPECT_DOUBLE_EQ(cube.Overall(n_before), 150.0);
  EXPECT_DOUBLE_EQ(cube.SliceValue(0, n_before), 100.0);
  EXPECT_EQ(cube.OverallSeries().LabelAt(n_before), "d4");
}

TEST(CanonicalMask, DetectsHierarchicalRedundancy) {
  // B refines A: every A value has exactly one... here b-values determine
  // a-values, so (A,B) pairs are redundant with (B) alone.
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  table.AddTimeBucket("1");
  for (int time = 0; time < 2; ++time) {
    table.AppendRow(time, {"a1", "b1"}, {1.0 + time});
    table.AppendRow(time, {"a1", "b2"}, {2.0});
    table.AppendRow(time, {"a2", "b3"}, {3.0 - time});
  }
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  const ExplanationCube cube(table, reg, AggregateFunction::kSum, 0);
  const auto mask = ComputeCanonicalMask(cube, reg);

  // Raw cells: a1, a2, b1, b2, b3 + (a1,b1), (a1,b2), (a2,b3) = 8.
  EXPECT_EQ(reg.num_explanations(), 8u);
  // (a1,b1) == b1, (a1,b2) == b2, (a2,b3) == b3 == a2.
  // Canonical: a1, a2, b1, b2 (b3 dupes a2? both sum to the same rows...)
  size_t active = CountActive(mask);
  // a2 and b3 select identical rows, so one of them is masked too.
  EXPECT_EQ(active, 4u);

  // Representatives must be the lowest order: all order-2 cells masked.
  for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations()); ++e) {
    if (reg.explanation(e).order() == 2) {
      EXPECT_FALSE(mask[static_cast<size_t>(e)])
          << reg.explanation(e).ToString(table);
    }
  }
}

TEST(CanonicalMask, NoFalsePositives) {
  const Table t = MakeTable();  // all slices genuinely distinct
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const auto mask = ComputeCanonicalMask(cube, reg);
  EXPECT_EQ(CountActive(mask), reg.num_explanations());
}

TEST(AndMasksTest, ElementwiseAnd) {
  const std::vector<bool> a{true, true, false, false};
  const std::vector<bool> b{true, false, true, false};
  EXPECT_EQ(AndMasks(a, b),
            (std::vector<bool>{true, false, false, false}));
}

}  // namespace
}  // namespace tsexplain
