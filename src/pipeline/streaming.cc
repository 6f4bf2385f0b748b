#include "src/pipeline/streaming.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace tsexplain {

namespace {

// Per-append latency (docs/OBSERVABILITY.md). Covers both the
// incremental path and the fall-back full rebuild, so the histogram's
// tail is where rebuild storms show up.
Histogram& AppendBucketMs() {
  static Histogram& histogram =
      MetricRegistry::Global().GetHistogram("streaming.append_bucket_ms");
  return histogram;
}

}  // namespace

StreamingTSExplain::StreamingTSExplain(const Table& initial,
                                       TSExplainConfig config)
    : table_(std::make_unique<Table>(initial)), config_(std::move(config)) {
  for (const std::string& name : config_.explain_by_names) {
    const AttrId attr = table_->schema().DimensionIndex(name);
    TSE_CHECK_NE(attr, kInvalidAttrId)
        << "unknown explain-by dimension: " << name;
    explain_by_.push_back(attr);
  }
  measure_idx_ = config_.measure.empty()
                     ? -1
                     : table_->schema().MeasureIndex(config_.measure);
  if (!config_.measure.empty()) {
    TSE_CHECK_GE(measure_idx_, 0) << "unknown measure: " << config_.measure;
  }
  BuildEngine();
}

void StreamingTSExplain::BuildEngine() {
  {
    TupleCells tuple_cells;
    registry_ = ExplanationRegistry::Build(*table_, explain_by_,
                                           config_.max_order, &tuple_cells);
    cube_ = std::make_unique<ExplanationCube>(
        *table_, registry_, tuple_cells, config_.aggregate, measure_idx_,
        ResolveThreadCount(config_.threads));
  }
  if (config_.smooth_window > 1) cube_->SmoothInPlace(config_.smooth_window);
  active_mask_ = ComputeActiveMask();
  SegmentExplainer::Options options;
  options.m = config_.m;
  options.metric = config_.diff_metric;
  options.use_guess_verify = config_.use_guess_verify;
  options.initial_guess = config_.initial_guess;
  options.active = active_mask_.empty() ? nullptr : &active_mask_;
  explainer_ =
      std::make_unique<SegmentExplainer>(*cube_, registry_, options);
}

std::vector<bool> StreamingTSExplain::ComputeActiveMask() const {
  std::vector<bool> mask;
  if (config_.dedupe_redundant) {
    mask = ComputeCanonicalMask(*cube_, registry_);
  }
  if (config_.use_filter) {
    std::vector<bool> filter =
        ComputeSupportFilter(*cube_, config_.filter_ratio);
    mask = mask.empty() ? std::move(filter) : AndMasks(mask, filter);
  }
  return mask;
}

void StreamingTSExplain::AppendBucket(const std::string& label,
                                      const std::vector<StreamRow>& rows) {
  Timer append_timer;
  const size_t first_row = table_->num_rows();
  const TimeId t = table_->AddTimeBucket(label);
  for (const StreamRow& row : rows) {
    table_->AppendRow(t, row.dims, row.measures);
  }

  // Smoothing mixes past raw partials into new buckets; the cube only keeps
  // smoothed values, so rebuild in that configuration (documented).
  bool rebuild = config_.smooth_window > 1;

  // Incremental path: resolve the cells of each distinct tuple in the
  // bucket once, then accumulate the bucket's per-cell partials in row
  // order; bail to a rebuild if a never-seen cell shows up.
  std::vector<AggState> slice_partials;
  AggState overall{};
  TupleCells bucket;
  if (!rebuild && !registry_.ResolveRows(*table_, first_row, &bucket)) {
    rebuild = true;  // new cell: registry no longer covers the data
  }
  if (!rebuild) {
    slice_partials.assign(registry_.num_explanations(), AggState{});
    for (size_t row = first_row; row < table_->num_rows(); ++row) {
      const double value =
          measure_idx_ < 0 ? 1.0 : table_->measure(row, measure_idx_);
      overall.Add(value);
      const ExplId* cells = bucket.CellsOfRow(row);
      for (size_t s = 0; s < bucket.cells_per_tuple; ++s) {
        slice_partials[static_cast<size_t>(cells[s])].Add(value);
      }
    }
  }

  last_append_rebuilt_ = rebuild;
  if (rebuild) {
    BuildEngine();
    AppendBucketMs().Observe(append_timer.ElapsedMs());
    if (append_observer_) append_observer_(label, rows);
    return;
  }

  cube_->AppendBucket(overall, slice_partials, label);
  if (config_.use_filter || config_.dedupe_redundant) {
    // Refresh the mask in place (the explainer holds a pointer to it). If
    // any cell's status flipped (new support gained, equal slices
    // diverged), cached explanations may be stale, so drop the cache.
    std::vector<bool> fresh = ComputeActiveMask();
    if (fresh != active_mask_) {
      active_mask_.swap(fresh);
      explainer_->ClearCache();
    }
  }
  AppendBucketMs().Observe(append_timer.ElapsedMs());
  if (append_observer_) append_observer_(label, rows);
}

TSExplainResult StreamingTSExplain::Explain(int threads_override) {
  const int num_points = n();
  TSE_CHECK_GE(num_points, 3);

  std::vector<int> positions;
  if (!first_run_done_) {
    if (config_.use_sketch) {
      VarianceCalculator calc(*explainer_, config_.variance_metric);
      positions = SelectSketch(calc, config_.sketch_params).positions;
    } else {
      positions.resize(static_cast<size_t>(num_points));
      std::iota(positions.begin(), positions.end(), 0);
    }
  } else {
    // Incremental: previous cuts + every point appended since last run.
    positions = last_cuts_;
    for (int p = std::max(1, last_n_ - 1); p < num_points; ++p) {
      positions.push_back(p);
    }
    positions.push_back(0);
    positions.push_back(num_points - 1);
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
  }

  TSExplainResult result = RunWithCandidates(
      positions, threads_override > 0 ? threads_override
                                      : ResolveThreadCount(config_.threads));
  last_cuts_ = result.segmentation.cuts;
  last_n_ = num_points;
  first_run_done_ = true;
  return result;
}

TSExplainResult StreamingTSExplain::RunWithCandidates(
    const std::vector<int>& positions, int threads) {
  Timer total_timer;
  const ExplainerTiming before = explainer_->timing();

  TSExplainResult result;
  result.epsilon = registry_.num_explanations();
  result.filtered_epsilon = active_mask_.empty()
                                ? registry_.num_explanations()
                                : CountActive(active_mask_);

  VarianceCalculator calc(*explainer_, config_.variance_metric);
  const VarianceTable table =
      VarianceTable::Compute(calc, positions, /*max_span=*/-1, threads);
  const int dp_max_k = config_.fixed_k > 0 ? config_.fixed_k : config_.max_k;
  KSegmentationDp dp(table, dp_max_k);
  result.k_variance_curve = dp.Curve();
  if (config_.fixed_k > 0) {
    int k = std::min(config_.fixed_k, dp.max_k());
    while (k > 1 && !dp.Feasible(k)) --k;
    result.chosen_k = k;
  } else {
    result.chosen_k = SelectElbowK(result.k_variance_curve);
  }
  result.segmentation = dp.Reconstruct(result.chosen_k);

  const TimeSeries overall = cube_->OverallSeries();
  for (size_t i = 0; i + 1 < result.segmentation.cuts.size(); ++i) {
    SegmentExplanation seg;
    seg.begin = result.segmentation.cuts[i];
    seg.end = result.segmentation.cuts[i + 1];
    seg.begin_label = overall.LabelAt(static_cast<size_t>(seg.begin));
    seg.end_label = overall.LabelAt(static_cast<size_t>(seg.end));
    const TopExplanations& top = explainer_->TopFor(seg.begin, seg.end);
    for (size_t r = 0; r < top.ids.size(); ++r) {
      ExplanationItem item;
      item.id = top.ids[r];
      item.description =
          registry_.explanation(item.id).ToString(*table_);
      item.gamma = top.gammas[r];
      item.tau = explainer_->Score(item.id, seg.begin, seg.end).tau;
      seg.top.push_back(std::move(item));
    }
    result.segments.push_back(std::move(seg));
  }

  const ExplainerTiming after = explainer_->timing();
  result.timing = TimingBreakdown::Partition(
      /*build_ms=*/0.0, after.precompute_ms - before.precompute_ms,
      after.cascading_ms - before.cascading_ms, total_timer.ElapsedMs());
  return result;
}

}  // namespace tsexplain
