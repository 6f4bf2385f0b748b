// Tests for the streaming / real-time extension (section 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/datagen/synthetic.h"
#include "src/pipeline/streaming.h"

namespace tsexplain {
namespace {

TSExplainConfig BaseConfig() {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  return config;
}

SyntheticDataset MakeDataset(uint64_t seed) {
  SyntheticConfig config;
  config.length = 80;
  config.snr_db = 45.0;
  config.num_interior_cuts = 3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

std::vector<StreamRow> BucketRows(const Table& source, TimeId t) {
  std::vector<StreamRow> rows;
  for (size_t r = 0; r < source.num_rows(); ++r) {
    if (source.time(r) != t) continue;
    StreamRow row;
    for (size_t d = 0; d < source.schema().num_dimensions(); ++d) {
      row.dims.push_back(source.dictionary(static_cast<AttrId>(d))
                             .ToString(source.dim(r, static_cast<AttrId>(d))));
    }
    for (size_t m = 0; m < source.schema().num_measures(); ++m) {
      row.measures.push_back(source.measure(r, static_cast<int>(m)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Streaming, FirstRunMatchesBatchEngine) {
  const SyntheticDataset ds = MakeDataset(5);
  TSExplainConfig config = BaseConfig();
  config.fixed_k = 4;

  TSExplain batch(*ds.table, config);
  StreamingTSExplain streaming(*ds.table, config);
  const TSExplainResult batch_result = batch.Run();
  const TSExplainResult stream_result = streaming.Explain();
  EXPECT_EQ(stream_result.segmentation.cuts, batch_result.segmentation.cuts);
  EXPECT_NEAR(stream_result.segmentation.total_variance,
              batch_result.segmentation.total_variance, 1e-9);
}

TEST(Streaming, AppendWithKnownCellsIsIncremental) {
  // Split the dataset: first 70 buckets seed the engine, the rest stream
  // in. All categories appear early, so no rebuild is needed.
  const SyntheticDataset full = MakeDataset(9);
  Table prefix(full.table->schema());
  for (int t = 0; t < 70; ++t) {
    prefix.AddTimeBucket(full.table->time_labels()[static_cast<size_t>(t)]);
  }
  for (size_t r = 0; r < full.table->num_rows(); ++r) {
    if (full.table->time(r) < 70) {
      prefix.AppendRow(
          full.table->time(r),
          {full.table->dictionary(0).ToString(full.table->dim(r, 0))},
          {full.table->measure(r, 0)});
    }
  }

  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(prefix, config);
  const TSExplainResult first = streaming.Explain();
  EXPECT_EQ(first.segmentation.cuts.back(), 69);

  for (int t = 70; t < 80; ++t) {
    streaming.AppendBucket(
        full.table->time_labels()[static_cast<size_t>(t)],
        BucketRows(*full.table, static_cast<TimeId>(t)));
    EXPECT_FALSE(streaming.last_append_rebuilt()) << "bucket " << t;
  }
  EXPECT_EQ(streaming.n(), 80);

  const TSExplainResult second = streaming.Explain();
  EXPECT_EQ(second.segmentation.cuts.back(), 79);
  EXPECT_GE(second.segmentation.num_segments(), 1);
}

TEST(Streaming, IncrementalPartialsEqualAFreshCube) {
  // Two explain-by attributes at order 2, with tuples repeated inside each
  // appended bucket: the per-tuple incremental append must produce the
  // exact partials a cube built from scratch on the grown table holds.
  Table table(Schema("t", {"A", "B"}, {"value"}));
  std::vector<std::vector<StreamRow>> buckets;
  for (int t = 0; t < 10; ++t) {
    std::vector<StreamRow> rows;
    for (int i = 0; i < 12; ++i) {
      rows.push_back(StreamRow{{"a" + std::to_string(i % 3),
                                "b" + std::to_string((i + t) % 2)},
                               {0.5 * i + 0.25 * t + 0.1}});
    }
    buckets.push_back(std::move(rows));
  }
  for (int t = 0; t < 4; ++t) {
    table.AddTimeBucket(std::to_string(t));
    for (const StreamRow& row : buckets[static_cast<size_t>(t)]) {
      table.AppendRow(t, row.dims, row.measures);
    }
  }
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"B", "A"};
  config.max_order = 2;
  StreamingTSExplain streaming(table, config);
  for (int t = 4; t < 10; ++t) {
    streaming.AppendBucket(std::to_string(t),
                           buckets[static_cast<size_t>(t)]);
    ASSERT_FALSE(streaming.last_append_rebuilt()) << "bucket " << t;
  }

  const auto registry =
      ExplanationRegistry::Build(streaming.table(), {1, 0}, 2);
  const ExplanationCube fresh(streaming.table(), registry,
                              AggregateFunction::kSum, 0);
  const ExplanationCube& incremental = streaming.cube();
  ASSERT_EQ(incremental.n(), 10u);
  ASSERT_EQ(incremental.num_explanations(), registry.num_explanations());
  for (size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(incremental.Overall(t), fresh.Overall(t));
    for (ExplId e = 0; e < static_cast<ExplId>(registry.num_explanations());
         ++e) {
      EXPECT_EQ(incremental.SliceValue(e, t), fresh.SliceValue(e, t))
          << "cell " << e << " t " << t;
    }
  }
}

TEST(Streaming, NewCategoryForcesRebuild) {
  const SyntheticDataset ds = MakeDataset(13);
  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(*ds.table, config);
  streaming.Explain();

  StreamRow row;
  row.dims = {"brand-new-category"};
  row.measures = {123.0};
  streaming.AppendBucket("t80", {row});
  EXPECT_TRUE(streaming.last_append_rebuilt());
  const TSExplainResult result = streaming.Explain();
  EXPECT_EQ(result.segmentation.cuts.back(), 80);
}

TEST(Streaming, IncrementalCutsComeFromOldCutsPlusTail) {
  const SyntheticDataset ds = MakeDataset(17);
  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(*ds.table, config);
  const TSExplainResult first = streaming.Explain();

  // Append three flat buckets (copy of the last one).
  const auto rows = BucketRows(*ds.table, 79);
  streaming.AppendBucket("t80", rows);
  streaming.AppendBucket("t81", rows);
  streaming.AppendBucket("t82", rows);
  const TSExplainResult second = streaming.Explain();

  // Every interior cut of the refreshed result must be an old cut or a
  // tail point (>= 78).
  for (size_t i = 1; i + 1 < second.segmentation.cuts.size(); ++i) {
    const int cut = second.segmentation.cuts[i];
    const bool is_old =
        std::find(first.segmentation.cuts.begin(),
                  first.segmentation.cuts.end(),
                  cut) != first.segmentation.cuts.end();
    EXPECT_TRUE(is_old || cut >= 78) << "unexpected cut " << cut;
  }
}

TEST(Streaming, SmoothingConfigRebuildsOnAppend) {
  const SyntheticDataset ds = MakeDataset(19);
  TSExplainConfig config = BaseConfig();
  config.smooth_window = 3;
  StreamingTSExplain streaming(*ds.table, config);
  streaming.Explain();
  streaming.AppendBucket("t80", BucketRows(*ds.table, 79));
  EXPECT_TRUE(streaming.last_append_rebuilt());
}

}  // namespace
}  // namespace tsexplain
