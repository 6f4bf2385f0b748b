// Unit coverage for trace spans (src/common/trace.h): the Finalize
// partition invariant — children tile their parent exactly, gaps surface
// as synthetic "other" spans, overshoot scales down — the
// Begin/End/AddSpan/Graft bookkeeping the engine and the service rely
// on, and TimingBreakdown (src/pipeline/tsexplain.h) as a view over a
// finalized tree: hand-built trees for the clamp-and-scale cases, and a
// real engine Run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/datagen/liquor_sim.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

// Sum of the direct children of `parent`, or -1 when it has none.
double ChildSum(const std::vector<TraceSpan>& spans, int parent) {
  double sum = 0.0;
  bool any = false;
  for (const TraceSpan& span : spans) {
    if (span.parent == parent) {
      sum += span.duration_ms;
      any = true;
    }
  }
  return any ? sum : -1.0;
}

TEST(QueryTraceTest, RootSpanAndBasicBookkeeping) {
  QueryTrace trace;
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "query");
  EXPECT_EQ(trace.spans()[0].parent, -1);

  const int child = trace.BeginSpan("cache_lookup");
  EXPECT_EQ(child, 1);
  trace.EndSpan(child);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_GE(trace.spans()[1].duration_ms, 0.0);

  const int grafted = trace.AddSpan("engine_run", 1.0, 2.5, child);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(grafted)].parent, child);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(grafted)].duration_ms,
                   2.5);
  // Negative durations are clamped at insertion.
  const int clamped = trace.AddSpan("negative", 0.0, -3.0, 0);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(clamped)].duration_ms,
                   0.0);
}

TEST(QueryTraceTest, FinalizeFillsGapsWithOtherSpans) {
  QueryTrace trace;
  trace.AddSpan("a", 0.0, 3.0, 0);
  trace.AddSpan("b", 3.0, 2.0, 0);
  trace.Finalize(10.0);

  const std::vector<TraceSpan>& spans = trace.spans();
  EXPECT_DOUBLE_EQ(spans[0].duration_ms, 10.0);
  // A 5 ms gap after "b" becomes a trailing synthetic "other" child.
  const TraceSpan& other = spans.back();
  EXPECT_EQ(other.name, "other");
  EXPECT_EQ(other.parent, 0);
  EXPECT_DOUBLE_EQ(other.start_ms, 5.0);
  EXPECT_DOUBLE_EQ(other.duration_ms, 5.0);
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 10.0);
}

TEST(QueryTraceTest, FinalizeScalesOvershootingChildren) {
  QueryTrace trace;
  // Children claim 12 ms inside an 6 ms parent (cross-clock skew):
  // durations and relative offsets must scale by 0.5, no "other" span.
  trace.AddSpan("a", 0.0, 8.0, 0);
  trace.AddSpan("b", 8.0, 4.0, 0);
  trace.Finalize(6.0);

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);  // no synthetic span appended
  EXPECT_DOUBLE_EQ(spans[1].duration_ms, 4.0);
  EXPECT_DOUBLE_EQ(spans[2].duration_ms, 2.0);
  EXPECT_DOUBLE_EQ(spans[2].start_ms, 4.0);  // offset scaled too
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 6.0);
}

TEST(QueryTraceTest, FinalizePartitionsEveryLevelOfTheTree) {
  QueryTrace trace;
  const int compute = trace.AddSpan("compute", 1.0, 8.0, 0);
  trace.AddSpan("engine_run", 1.0, 5.0, compute);
  trace.AddSpan("json_render", 6.0, 1.0, compute);
  trace.Finalize(10.0);

  const std::vector<TraceSpan>& spans = trace.spans();
  // Level 0: compute (8) + a single trailing "other" (10 - 8 = 2).
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 10.0);
  // Level 1: engine_run (5) + json_render (1) + other (2) == compute (8).
  EXPECT_DOUBLE_EQ(ChildSum(spans, compute), 8.0);
  // Sub-epsilon gaps are folded, larger ones get explicit spans; either
  // way every parent with children is tiled exactly.
  int other_count = 0;
  for (const TraceSpan& span : spans) {
    if (span.name == "other") ++other_count;
  }
  EXPECT_EQ(other_count, 2);
}

TEST(QueryTraceTest, FinalizeFoldsSubEpsilonGapIntoLastChild) {
  QueryTrace trace;
  trace.AddSpan("a", 0.0, 5.0, 0);
  // Gap of 1e-9 ms: below the epsilon, folded into "a" instead of
  // emitting a degenerate "other" span.
  trace.Finalize(5.0 + 1e-9);

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[1].duration_ms, spans[0].duration_ms);
}

TEST(QueryTraceTest, FinalizeClampsNegativeTotal) {
  QueryTrace trace;
  trace.AddSpan("a", 0.0, 1.0, 0);
  trace.Finalize(-2.0);
  const std::vector<TraceSpan>& spans = trace.spans();
  EXPECT_DOUBLE_EQ(spans[0].duration_ms, 0.0);
  // Children scale to fit the zero-width parent.
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 0.0);
}

TEST(QueryTraceTest, OriginOffsetsTheClock) {
  QueryTrace trace("engine", 7.0);
  EXPECT_EQ(trace.spans()[0].name, "engine");
  EXPECT_GE(trace.ElapsedMs(), 7.0);
  const int span = trace.BeginSpan("stage");
  EXPECT_GE(trace.spans()[static_cast<size_t>(span)].start_ms, 7.0);
}

TEST(QueryTraceTest, GraftCopiesOneSubtreeShifted) {
  QueryTrace source;
  const int stage = source.AddSpan("stage", 1.0, 4.0, 0);
  source.AddSpan("counted", 1.0, 2.0, stage);
  source.AddSpan("sibling", 5.0, 1.0, 0);

  QueryTrace target;
  const int run = target.AddSpan("engine_run", 10.0, 6.0, 0);
  const int copy = target.Graft(source.spans(), 1, run, 10.0);
  const std::vector<TraceSpan>& spans = target.spans();
  ASSERT_EQ(spans.size(), 4u);  // root, engine_run, stage, counted
  EXPECT_EQ(spans[static_cast<size_t>(copy)].name, "stage");
  EXPECT_EQ(spans[static_cast<size_t>(copy)].parent, run);
  EXPECT_DOUBLE_EQ(spans[static_cast<size_t>(copy)].start_ms, 11.0);
  EXPECT_EQ(spans[3].name, "counted");
  EXPECT_EQ(spans[3].parent, copy);
  EXPECT_DOUBLE_EQ(spans[3].duration_ms, 2.0);
}

// An engine-shaped tree: a build layer of `build_ms`, then one stage of
// `wall_ms` whose explainer time was counted as `fill_ms` of gamma fills
// and `ca_ms` of Cascading Analysts, finalized at build + wall.
TimingBreakdown BucketsOf(double build_ms, double fill_ms, double ca_ms,
                          double wall_ms) {
  QueryTrace trace("engine");
  trace.AddSpan("diff.registry_build", 0.0, build_ms, 0);
  const int stage =
      trace.AddSpan("seg.variance_table", build_ms, wall_ms, 0);
  trace.AddSpan("cube.gamma_fill", build_ms, fill_ms, stage);
  trace.AddSpan("diff.ca", build_ms + fill_ms, ca_ms, stage);
  trace.Finalize(std::max(0.0, build_ms) + std::max(0.0, wall_ms));
  return TimingBreakdown::FromSpans(trace.spans());
}

// The Figure-15 buckets are a non-negative partition of the charged wall
// clock by construction, even when the counted explainer time overshoots
// the stage (per-thread sums at threads > 1, or a concurrent Prewarm
// advancing the shared counters).
TEST(TimingBreakdownTest, OvershootingCountedTimeScalesDown) {
  // 80 + 40 ms counted inside a 60 ms stage: scaled 80:40 into 60.
  const TimingBreakdown t = BucketsOf(/*build_ms=*/10.0, /*fill_ms=*/80.0,
                                      /*ca_ms=*/40.0, /*wall_ms=*/60.0);
  EXPECT_NEAR(t.precompute_ms, 10.0 + 40.0, 1e-9);
  EXPECT_NEAR(t.cascading_ms, 20.0, 1e-9);
  EXPECT_NEAR(t.segmentation_ms, 0.0, 1e-9);
  EXPECT_NEAR(t.TotalMs(), 70.0, 1e-9);
  EXPECT_NEAR(t.total_ms, 70.0, 1e-9);
}

TEST(TimingBreakdownTest, SegmentationIsTheExactRemainder) {
  const TimingBreakdown t = BucketsOf(5.0, 10.0, 20.0, 100.0);
  EXPECT_NEAR(t.precompute_ms, 15.0, 1e-9);
  EXPECT_NEAR(t.cascading_ms, 20.0, 1e-9);
  EXPECT_NEAR(t.segmentation_ms, 70.0, 1e-9);
  EXPECT_NEAR(t.total_ms, 105.0, 1e-9);
}

TEST(TimingBreakdownTest, HostileDurationsStayNonNegative) {
  // Negative build and fill, CA inside a zero-width stage.
  const TimingBreakdown t = BucketsOf(-3.0, -1.0, 5.0, 0.0);
  EXPECT_GE(t.precompute_ms, 0.0);
  EXPECT_GE(t.cascading_ms, 0.0);
  EXPECT_GE(t.segmentation_ms, 0.0);
  EXPECT_NEAR(t.TotalMs(), 0.0, 1e-9);
  EXPECT_NEAR(t.total_ms, 0.0, 1e-9);
}

// A cold Liquor O1+O2 run: the engine names its layers, the tree tiles
// the run's charged wall clock exactly, and the Figure-15 buckets are
// exactly the sums of their spans.
TEST(TimingBreakdownTest, RealRunSpansTileAndSumToTheBuckets) {
  const auto table = MakeLiquorTable();
  TSExplainConfig config;
  config.measure = "bottles_sold";
  config.explain_by_names = {"BV", "P"};
  config.use_guess_verify = true;
  config.use_sketch = true;
  TSExplain engine(*table, config);
  const TSExplainResult result = engine.Run();
  const std::vector<TraceSpan>& spans = result.spans;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "engine");
  EXPECT_EQ(spans[0].parent, -1);

  std::set<std::string> layers;
  for (size_t i = 1; i < spans.size(); ++i) {
    ASSERT_GE(spans[i].parent, 0);
    ASSERT_LT(static_cast<size_t>(spans[i].parent), i);
    EXPECT_GE(spans[i].duration_ms, 0.0);
    if (spans[i].name != "other") layers.insert(spans[i].name);
  }
  // This run carries every layer, and the layer table (which the service's
  // always-on metrics read) lists exactly the spans the engine records.
  std::set<std::string> listed;
  for (const EngineLayer& layer : EngineLayers()) listed.insert(layer.span);
  EXPECT_EQ(layers, listed);
  for (const char* layer :
       {"diff.registry_build", "cube.build", "cube.mask", "seg.explainer_init",
        "seg.sketch", "seg.variance_table", "seg.dp", "seg.elbow",
        "pipeline.segment_explain", "cube.gamma_fill", "diff.ca"}) {
    EXPECT_EQ(layers.count(layer), 1u) << layer;
  }

  for (size_t p = 0; p < spans.size(); ++p) {
    const double sum = ChildSum(spans, static_cast<int>(p));
    if (sum < 0.0) continue;  // a leaf
    EXPECT_NEAR(sum, spans[p].duration_ms,
                1e-9 * std::max(1.0, spans[p].duration_ms))
        << spans[p].name;
  }

  double precompute = 0.0;
  double cascading = 0.0;
  for (const TraceSpan& span : spans) {
    if (span.name == "diff.ca") {
      cascading += span.duration_ms;
    } else if (span.name == "cube.gamma_fill" || IsBuildLayer(span.name)) {
      precompute += span.duration_ms;
    }
  }
  EXPECT_EQ(result.timing.total_ms, spans[0].duration_ms);
  EXPECT_EQ(result.timing.precompute_ms, precompute);
  EXPECT_EQ(result.timing.cascading_ms, cascading);
  EXPECT_EQ(result.timing.segmentation_ms,
            spans[0].duration_ms - precompute - cascading);
}

}  // namespace
}  // namespace tsexplain
