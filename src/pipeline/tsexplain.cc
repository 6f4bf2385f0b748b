#include "src/pipeline/tsexplain.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace tsexplain {

std::vector<AttrId> ResolveExplainBy(const Table& table,
                                     const std::vector<std::string>& names) {
  TSE_CHECK(!names.empty()) << "explain_by_names must not be empty";
  std::vector<AttrId> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    const AttrId attr = table.schema().DimensionIndex(name);
    TSE_CHECK_NE(attr, kInvalidAttrId)
        << "unknown explain-by dimension: " << name;
    attrs.push_back(attr);
  }
  return attrs;
}

int ResolveMeasure(const Table& table, const std::string& name) {
  if (name.empty()) return -1;  // COUNT(*)
  const int idx = table.schema().MeasureIndex(name);
  TSE_CHECK_GE(idx, 0) << "unknown measure: " << name;
  return idx;
}

namespace {

// Records the explainer time spent inside `stage` since `*counted` (gamma
// fills and Cascading Analysts, summed over calls and threads) as counted
// children of the stage, then advances `*counted`. Finalize scales them
// down if the threads' sums exceed the stage's wall clock.
void AddCountedLayers(QueryTrace& trace, int stage,
                      const SegmentExplainer& explainer,
                      ExplainerTiming* counted) {
  const ExplainerTiming now = explainer.timing();
  const double fill_ms = now.precompute_ms - counted->precompute_ms;
  const double ca_ms = now.cascading_ms - counted->cascading_ms;
  double start = trace.spans()[static_cast<size_t>(stage)].start_ms;
  if (fill_ms > 0.0) {
    trace.AddSpan("cube.gamma_fill", start, fill_ms, stage);
    start += fill_ms;
  }
  if (ca_ms > 0.0) trace.AddSpan("diff.ca", start, ca_ms, stage);
  *counted = now;
}

}  // namespace

const std::vector<EngineLayer>& EngineLayers() {
  static const std::vector<EngineLayer> layers = {
      {"diff.registry_build", true,
       MetricRegistry::Global().GetHistogram("engine.registry_build_ms")},
      {"cube.build", true,
       MetricRegistry::Global().GetHistogram("engine.cube_build_ms")},
      {"cube.mask", true,
       MetricRegistry::Global().GetHistogram("engine.mask_ms")},
      {"seg.explainer_init", true,
       MetricRegistry::Global().GetHistogram("engine.explainer_init_ms")},
      {"seg.sketch", false,
       MetricRegistry::Global().GetHistogram("engine.sketch_ms")},
      {"seg.variance_table", false,
       MetricRegistry::Global().GetHistogram("engine.variance_table_ms")},
      {"seg.dp", false, MetricRegistry::Global().GetHistogram("engine.dp_ms")},
      {"seg.elbow", false,
       MetricRegistry::Global().GetHistogram("engine.elbow_ms")},
      {"pipeline.segment_explain", false,
       MetricRegistry::Global().GetHistogram("engine.segment_explain_ms")},
      {"cube.gamma_fill", false,
       MetricRegistry::Global().GetHistogram("engine.gamma_fill_ms")},
      {"diff.ca", false,
       MetricRegistry::Global().GetHistogram("engine.ca_ms")},
  };
  return layers;
}

bool IsBuildLayer(const std::string& span_name) {
  for (const EngineLayer& layer : EngineLayers()) {
    if (span_name == layer.span) return layer.build;
  }
  return false;
}

TimingBreakdown TimingBreakdown::FromSpans(
    const std::vector<TraceSpan>& spans) {
  TimingBreakdown timing;
  if (spans.empty()) return timing;
  timing.total_ms = spans[0].duration_ms;
  for (const TraceSpan& span : spans) {
    if (span.name == "diff.ca") {
      timing.cascading_ms += span.duration_ms;
    } else if (span.name == "cube.gamma_fill" || IsBuildLayer(span.name)) {
      timing.precompute_ms += span.duration_ms;
    }
  }
  timing.segmentation_ms = std::max(
      0.0, timing.total_ms - timing.precompute_ms - timing.cascading_ms);
  return timing;
}

SegmentationSpec SegmentationSpec::FromConfig(const TSExplainConfig& config) {
  SegmentationSpec spec;
  spec.fixed_k = config.fixed_k;
  spec.max_k = config.max_k;
  spec.variance_metric = config.variance_metric;
  spec.use_sketch = config.use_sketch;
  spec.sketch_params = config.sketch_params;
  spec.threads = config.threads;
  return spec;
}

std::string ExplanationItem::ToString() const {
  const char* effect = tau > 0 ? "+" : (tau < 0 ? "-" : "=");
  return description + " (" + effect + ")";
}

TSExplain::TSExplain(const Table& table, TSExplainConfig config)
    : TSExplain(table, std::move(config), /*source=*/nullptr) {}

TSExplain::TSExplain(const Table& table, TSExplainConfig config,
                     const Precomputation* source,
                     Precomputation::Cost charged)
    : table_(table), config_(std::move(config)) {
  TSE_CHECK_GE(table.num_time_buckets(), 3u)
      << "need at least three time buckets to segment";
  // Time the caller already spent on `source` for this engine leads the
  // build clock.
  QueryTrace build("engine", charged.registry_ms + charged.cube_ms);
  explain_by_ = ResolveExplainBy(table, config_.explain_by_names);
  measure_idx_ = ResolveMeasure(table, config_.measure);
  {
    // Module (a): this engine's own precomputation, or its view of the
    // caller's. Either way the engine keeps only the registry and the
    // partials; the row grouping and the distinct tuples are dropped here.
    Precomputation::Cost cost = charged;
    Precomputation own;
    if (source != nullptr) {
      TSE_CHECK_EQ(source->measure_idx, measure_idx_);
      own = source->Project(explain_by_, config_.max_order, &cost);
      TSE_CHECK_EQ(own.partials->overall.size(), table.num_time_buckets())
          << "precomputation built on another table";
    } else {
      own = Precomputation::Build(table, explain_by_, config_.max_order,
                                  measure_idx_,
                                  ResolveThreadCount(config_.threads), &cost);
    }
    registry_ = std::move(own.registry);
    cube_ = std::make_unique<ExplanationCube>(std::move(own.partials),
                                              config_.aggregate);
    if (config_.smooth_window > 1) {
      Timer smooth;
      cube_->SmoothInPlace(config_.smooth_window);
      cost.cube_ms += smooth.ElapsedMs();
    }
    build.AddSpan("diff.registry_build", 0.0, cost.registry_ms, 0);
    build.AddSpan("cube.build", cost.registry_ms, cost.cube_ms, 0);
  }

  const int mask_span = build.BeginSpan("cube.mask");
  if (!config_.exclude.empty()) {
    exclude_mask_.assign(registry_->num_explanations(), true);
    for (size_t e = 0; e < registry_->num_explanations(); ++e) {
      for (const Predicate& p :
           registry_->explanation(static_cast<ExplId>(e)).predicates()) {
        const std::string rendered = table_.PredicateString(p.attr, p.value);
        const std::string& value =
            table_.dictionary(p.attr).ToString(p.value);
        for (const std::string& banned : config_.exclude) {
          if (banned == rendered || banned == value) {
            exclude_mask_[e] = false;
          }
        }
      }
    }
  }
  RefreshActiveMask();
  build.EndSpan(mask_span);

  const int init_span = build.BeginSpan("seg.explainer_init");
  SegmentExplainer::Options options;
  options.m = config_.m;
  options.metric = config_.diff_metric;
  options.use_guess_verify = config_.use_guess_verify;
  options.initial_guess = config_.initial_guess;
  options.active = active_mask_.empty() ? nullptr : &active_mask_;
  explainer_ =
      std::make_unique<SegmentExplainer>(*cube_, *registry_, options);
  build.EndSpan(init_span);
  build_spans_ = build.spans();
  build_spans_[0].duration_ms = build.ElapsedMs();
}

TSExplainResult TSExplain::Run() {
  return Run(SegmentationSpec::FromConfig(config_));
}

bool TSExplain::RefreshActiveMask() {
  // Dedupe of equal-slice conjunctions, then the support filter and the
  // exclude list on top.
  std::vector<bool> mask;
  canonical_count_ = registry_->num_explanations();
  if (config_.dedupe_redundant) {
    mask = ComputeCanonicalMask(*cube_, *registry_);
    canonical_count_ = CountActive(mask);
  }
  if (config_.use_filter) {
    std::vector<bool> filter =
        ComputeSupportFilter(*cube_, config_.filter_ratio);
    mask = mask.empty() ? std::move(filter) : AndMasks(mask, filter);
  }
  if (!exclude_mask_.empty()) {
    mask = mask.empty() ? exclude_mask_ : AndMasks(mask, exclude_mask_);
  }
  active_count_ =
      mask.empty() ? registry_->num_explanations() : CountActive(mask);
  if (mask == active_mask_) return false;
  // Swapped in place: the explainer holds a pointer to active_mask_.
  active_mask_.swap(mask);
  return true;
}

bool TSExplain::AppendBucket(size_t first_row) {
  // Smoothing mixes past raw partials into new buckets and the cube keeps
  // only smoothed values; an append that reused the last bucket's label
  // merged into that bucket instead of adding one.
  if (config_.smooth_window > 1 ||
      table_.num_time_buckets() != cube_->n() + 1) {
    return false;
  }
  TupleCells bucket;
  if (!registry_->ResolveRows(table_, first_row, &bucket)) return false;

  // Accumulate the bucket's per-cell partials in row order.
  std::vector<AggState> slice_partials(registry_->num_explanations());
  AggState overall{};
  for (size_t row = first_row; row < table_.num_rows(); ++row) {
    const double value =
        measure_idx_ < 0 ? 1.0 : table_.measure(row, measure_idx_);
    overall.Add(value);
    const ExplId* cells = bucket.CellsOfRow(row);
    for (size_t s = 0; s < bucket.cells_per_tuple; ++s) {
      slice_partials[static_cast<size_t>(cells[s])].Add(value);
    }
  }
  cube_->AppendBucket(overall, slice_partials, table_.time_labels().back());
  // A cell whose status flipped (support gained, equal slices diverged)
  // may make cached explanations stale.
  if (RefreshActiveMask()) explainer_->ClearCache();
  return true;
}

TSExplainResult TSExplain::Run(const SegmentationSpec& spec,
                               const std::vector<int>* candidates) {
  // The first run is charged the engine build: the constructor's layers
  // lead the tree, and this run's stages follow them on the same clock.
  QueryTrace trace("engine", build_spans_.empty()
                                 ? 0.0
                                 : build_spans_[0].duration_ms);
  for (size_t i = 1; i < build_spans_.size(); ++i) {
    if (build_spans_[i].parent == 0) trace.Graft(build_spans_, i, 0, 0.0);
  }
  build_spans_.clear();
  ExplainerTiming counted = explainer_->timing();

  TSExplainResult result;
  result.epsilon = canonical_count_;
  result.filtered_epsilon = active_count_;

  const int n = explainer_->n();
  VarianceCalculator calc(*explainer_, spec.variance_metric);

  // Candidate cut positions: the caller's, all points, or the sketch (O2).
  int stage = trace.BeginSpan("seg.sketch");
  std::vector<int> positions;
  if (candidates != nullptr) {
    positions = *candidates;
  } else if (spec.use_sketch) {
    SketchResult sketch = SelectSketch(calc, spec.sketch_params);
    result.sketch_positions = sketch.positions;
    positions = std::move(sketch.positions);
  } else {
    positions.resize(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);
  }
  trace.EndSpan(stage);
  AddCountedLayers(trace, stage, *explainer_, &counted);

  // Module (c): weighted variance table + DP over the candidates.
  stage = trace.BeginSpan("seg.variance_table");
  const VarianceTable table =
      VarianceTable::Compute(calc, positions, /*max_span=*/-1,
                             ResolveThreadCount(spec.threads));
  trace.EndSpan(stage);
  AddCountedLayers(trace, stage, *explainer_, &counted);
  stage = trace.BeginSpan("seg.dp");
  const int dp_max_k = spec.fixed_k > 0 ? spec.fixed_k : spec.max_k;
  KSegmentationDp dp(table, dp_max_k);
  result.k_variance_curve = dp.Curve();
  trace.EndSpan(stage);

  if (spec.fixed_k > 0) {
    int k = std::min(spec.fixed_k, dp.max_k());
    while (k > 1 && !dp.Feasible(k)) --k;
    result.chosen_k = k;
  } else {
    stage = trace.BeginSpan("seg.elbow");
    result.chosen_k = SelectElbowK(result.k_variance_curve);
    trace.EndSpan(stage);
  }
  stage = trace.BeginSpan("seg.dp");
  result.segmentation = dp.Reconstruct(result.chosen_k);
  trace.EndSpan(stage);

  // Explain each final segment via two-relations diff on its endpoints.
  stage = trace.BeginSpan("pipeline.segment_explain");
  const TimeSeries overall = cube_->OverallSeries();
  result.segments.reserve(
      static_cast<size_t>(result.segmentation.num_segments()));
  double variance_sum = 0.0;
  for (size_t i = 0; i + 1 < result.segmentation.cuts.size(); ++i) {
    SegmentExplanation seg;
    seg.begin = result.segmentation.cuts[i];
    seg.end = result.segmentation.cuts[i + 1];
    seg.begin_label = overall.LabelAt(static_cast<size_t>(seg.begin));
    seg.end_label = overall.LabelAt(static_cast<size_t>(seg.end));
    seg.top = ExplainSegment(seg.begin, seg.end);
    seg.variance = calc.SegmentVariance(seg.begin, seg.end);
    variance_sum += seg.variance;
    result.segments.push_back(std::move(seg));
  }
  // High-variance hints (section 9): flag segments whose internal variance
  // is non-trivial AND above the scheme's average (with a single segment
  // the non-trivial threshold alone decides -- there is no peer to compare
  // against).
  const double mean_variance =
      result.segments.empty()
          ? 0.0
          : variance_sum / static_cast<double>(result.segments.size());
  for (SegmentExplanation& seg : result.segments) {
    const bool above_peers = result.segments.size() <= 1 ||
                             seg.variance > 1.5 * mean_variance;
    seg.high_variance_hint = seg.variance > 0.1 && above_peers;
  }
  trace.EndSpan(stage);
  AddCountedLayers(trace, stage, *explainer_, &counted);

  trace.Finalize(trace.ElapsedMs());
  result.spans = trace.spans();
  result.timing = TimingBreakdown::FromSpans(result.spans);
  return result;
}

double TSExplain::EvaluateScheme(const std::vector<int>& cuts) {
  VarianceCalculator calc(*explainer_, config_.variance_metric);
  return TotalObjective(calc, cuts);
}

std::vector<ExplanationItem> TSExplain::ExplainSegment(int begin, int end) {
  const TopExplanations& top = explainer_->TopFor(begin, end);
  std::vector<ExplanationItem> items;
  items.reserve(top.ids.size());
  for (size_t r = 0; r < top.ids.size(); ++r) {
    ExplanationItem item;
    item.id = top.ids[r];
    item.description = registry_->explanation(item.id).ToString(table_);
    item.gamma = top.gammas[r];
    item.tau = explainer_->Score(item.id, begin, end).tau;
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace tsexplain
