// Tests for the streaming / real-time extension (section 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/datagen/synthetic.h"
#include "src/pipeline/streaming.h"
#include "src/seg/variance.h"

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

// The first `buckets` time buckets of `source`.
Table Prefix(const Table& source, int buckets) {
  Table prefix(source.schema());
  for (int t = 0; t < buckets; ++t) {
    const TimeId id =
        prefix.AddTimeBucket(source.time_labels()[static_cast<size_t>(t)]);
    for (const StreamRow& row : BucketRows(source, id)) {
      prefix.AppendRow(id, row.dims, row.measures);
    }
  }
  return prefix;
}

// Checks a session result against a fresh batch engine built on the
// session's grown table: the same candidate counts, and for the session's
// own cuts the same top explanations, segment variance and hint per
// segment.
void ExpectMatchesFreshBatch(const StreamingTSExplain& session,
                             const TSExplainConfig& config,
                             const TSExplainResult& result) {
  TSExplain fresh(session.table(), config);
  const TSExplainResult batch = fresh.Run();
  EXPECT_EQ(result.epsilon, batch.epsilon);
  EXPECT_EQ(result.filtered_epsilon, batch.filtered_epsilon);

  VarianceCalculator calc(fresh.explainer(), config.variance_metric);
  std::vector<double> variances;
  double variance_sum = 0.0;
  for (const SegmentExplanation& seg : result.segments) {
    variances.push_back(calc.SegmentVariance(seg.begin, seg.end));
    variance_sum += variances.back();
  }
  const double mean = variance_sum / static_cast<double>(variances.size());
  EXPECT_GT(variance_sum, 0.0);
  ASSERT_EQ(result.segments.size() + 1, result.segmentation.cuts.size());
  for (size_t i = 0; i < result.segments.size(); ++i) {
    const SegmentExplanation& seg = result.segments[i];
    EXPECT_EQ(seg.begin, result.segmentation.cuts[i]);
    EXPECT_EQ(seg.end, result.segmentation.cuts[i + 1]);
    const std::vector<ExplanationItem> expected =
        fresh.ExplainSegment(seg.begin, seg.end);
    ASSERT_EQ(seg.top.size(), expected.size()) << "segment " << i;
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(seg.top[r].id, expected[r].id);
      EXPECT_EQ(seg.top[r].description, expected[r].description);
      EXPECT_EQ(seg.top[r].gamma, expected[r].gamma);
      EXPECT_EQ(seg.top[r].tau, expected[r].tau);
    }
    EXPECT_EQ(seg.variance, variances[i]) << "segment " << i;
    const bool hint = variances[i] > 0.1 && (variances.size() <= 1 ||
                                             variances[i] > 1.5 * mean);
    EXPECT_EQ(seg.high_variance_hint, hint) << "segment " << i;
  }
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
  const Table prefix = Prefix(*full.table, 70);

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

TEST(Streaming, RepeatedLabelMergesIntoTheLastBucket) {
  // The table merges rows under the last bucket's label into that bucket,
  // so the engine must not grow its cube by one: it is rebuilt instead.
  const SyntheticDataset ds = MakeDataset(37);
  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(*ds.table, config);
  streaming.Explain();
  streaming.AppendBucket(ds.table->time_labels().back(),
                         BucketRows(*ds.table, 79));
  EXPECT_TRUE(streaming.last_append_rebuilt());
  EXPECT_EQ(streaming.n(), 80);
  EXPECT_EQ(streaming.cube().n(), streaming.table().num_time_buckets());
  ExpectMatchesFreshBatch(streaming, config, streaming.Explain());
}

TEST(Streaming, SegmentsMatchAFreshBatchEngineAfterAppends) {
  const SyntheticDataset full = MakeDataset(23);
  for (const bool force_rebuild : {false, true}) {
    for (const bool use_filter : {false, true}) {
      SCOPED_TRACE(testing::Message() << "rebuild " << force_rebuild
                                      << " filter " << use_filter);
      TSExplainConfig config = BaseConfig();
      config.use_filter = use_filter;
      StreamingTSExplain streaming(Prefix(*full.table, 60), config);
      ExpectMatchesFreshBatch(streaming, config, streaming.Explain());
      bool rebuilt = false;
      for (int t = 60; t < 80; ++t) {
        std::vector<StreamRow> rows =
            BucketRows(*full.table, static_cast<TimeId>(t));
        if (force_rebuild && t == 67) {
          rows.push_back(StreamRow{{"late-category"}, {40.0}});
        }
        streaming.AppendBucket(
            full.table->time_labels()[static_cast<size_t>(t)], rows);
        rebuilt = rebuilt || streaming.last_append_rebuilt();
        if (t % 5 == 4) {
          ExpectMatchesFreshBatch(streaming, config, streaming.Explain());
        }
      }
      EXPECT_EQ(rebuilt, force_rebuild);
    }
  }
}

// A category too small for the support filter in the prefix turns large in
// an appended bucket. The append flips its support; the engine re-derives
// the mask its fused score-and-select pass reads, and the session's
// segments equal a fresh batch engine's.
TEST(Streaming, SupportFlipRefreshesTheScoringMask) {
  const SyntheticDataset full = MakeDataset(31);
  TSExplainConfig config = BaseConfig();
  config.use_filter = config.use_guess_verify = true;
  Table prefix = Prefix(*full.table, 60);
  for (int t = 0; t < 60; ++t) {
    prefix.AppendRow(static_cast<TimeId>(t), {"rare"}, {1e-3});
  }
  StreamingTSExplain streaming(prefix, config);
  const TSExplainResult before = streaming.Explain();
  ExpectMatchesFreshBatch(streaming, config, before);
  for (int t = 60; t < 66; ++t) {
    std::vector<StreamRow> rows =
        BucketRows(*full.table, static_cast<TimeId>(t));
    rows.push_back(StreamRow{{"rare"}, {t >= 62 ? 1e6 : 1e-3}});
    streaming.AppendBucket(
        full.table->time_labels()[static_cast<size_t>(t)], rows);
    ASSERT_FALSE(streaming.last_append_rebuilt());
  }
  const TSExplainResult after = streaming.Explain();
  EXPECT_EQ(after.filtered_epsilon, before.filtered_epsilon + 1);
  ExpectMatchesFreshBatch(streaming, config, after);
  bool surfaced = false;
  for (const SegmentExplanation& seg : after.segments) {
    for (const ExplanationItem& item : seg.top) {
      surfaced = surfaced || item.description == "category=rare";
    }
  }
  EXPECT_TRUE(surfaced);
}

TEST(Streaming, ExcludedPredicateNeverSurfaces) {
  const SyntheticDataset full = MakeDataset(29);
  TSExplainConfig config = BaseConfig();
  config.fixed_k = 3;
  // Exclude the strongest contributor a plain batch run reports.
  TSExplain plain(*full.table, config);
  const std::string banned =
      plain.Run().segments.front().top.front().description;
  config.exclude = {banned};

  StreamingTSExplain streaming(Prefix(*full.table, 70), config);
  auto expect_muted = [&](const TSExplainResult& result) {
    for (const SegmentExplanation& seg : result.segments) {
      for (const ExplanationItem& item : seg.top) {
        EXPECT_NE(item.description, banned);
      }
    }
    TSExplain batch(streaming.table(), config);
    EXPECT_EQ(result.filtered_epsilon, batch.Run().filtered_epsilon);
    EXPECT_EQ(result.filtered_epsilon, result.epsilon - 1);
  };
  expect_muted(streaming.Explain());
  for (int t = 70; t < 80; ++t) {
    streaming.AppendBucket(full.table->time_labels()[static_cast<size_t>(t)],
                           BucketRows(*full.table, static_cast<TimeId>(t)));
    ASSERT_FALSE(streaming.last_append_rebuilt());
  }
  expect_muted(streaming.Explain());
  streaming.AppendBucket("t80", {StreamRow{{"late-category"}, {5.0}}});
  ASSERT_TRUE(streaming.last_append_rebuilt());
  expect_muted(streaming.Explain());
}

TEST(Streaming, EpsilonCountsDedupedCellsLikeBatch) {
  // Every city lies in one state, so each (state, city) conjunction has
  // the same slice as its city, and one state has a single city: dedupe
  // removes those cells from epsilon.
  Table table(Schema("t", {"state", "city"}, {"value"}));
  const std::vector<std::pair<std::string, std::string>> places = {
      {"WA", "Seattle"}, {"WA", "Spokane"}, {"OR", "Portland"}};
  std::vector<std::vector<StreamRow>> buckets;
  for (int t = 0; t < 12; ++t) {
    std::vector<StreamRow> rows;
    for (size_t p = 0; p < places.size(); ++p) {
      rows.push_back(StreamRow{{places[p].first, places[p].second},
                               {1.0 + static_cast<double>(p * t % 7)}});
    }
    buckets.push_back(std::move(rows));
  }
  for (int t = 0; t < 8; ++t) {
    table.AddTimeBucket(std::to_string(t));
    for (const StreamRow& row : buckets[static_cast<size_t>(t)]) {
      table.AppendRow(t, row.dims, row.measures);
    }
  }
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"state", "city"};
  config.max_order = 2;
  ASSERT_TRUE(config.dedupe_redundant);

  StreamingTSExplain streaming(table, config);
  const TSExplainResult first = streaming.Explain();
  TSExplain batch(table, config);
  EXPECT_EQ(first.epsilon, batch.Run().epsilon);
  EXPECT_LT(first.epsilon, batch.registry().num_explanations());

  for (int t = 8; t < 12; ++t) {
    streaming.AppendBucket(std::to_string(t),
                           buckets[static_cast<size_t>(t)]);
    ASSERT_FALSE(streaming.last_append_rebuilt());
  }
  const TSExplainResult grown = streaming.Explain();
  TSExplain grown_batch(streaming.table(), config);
  EXPECT_EQ(grown.epsilon, grown_batch.Run().epsilon);
}

TEST(Streaming, FirstFastRunReportsTheBatchSketch) {
  const SyntheticDataset ds = MakeDataset(31);
  TSExplainConfig config = BaseConfig();
  config.use_sketch = true;
  TSExplain batch(*ds.table, config);
  const TSExplainResult batch_result = batch.Run();
  ASSERT_FALSE(batch_result.sketch_positions.empty());

  StreamingTSExplain streaming(*ds.table, config);
  const TSExplainResult stream_result = streaming.Explain();
  EXPECT_EQ(stream_result.sketch_positions, batch_result.sketch_positions);
  EXPECT_EQ(stream_result.segmentation.cuts, batch_result.segmentation.cuts);
}

}  // namespace
}  // namespace tsexplain
