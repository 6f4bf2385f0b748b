#include "src/pipeline/tsexplain.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace tsexplain {
namespace {

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

}  // namespace

TimingBreakdown TimingBreakdown::Partition(double build_ms,
                                           double precompute_delta_ms,
                                           double cascading_delta_ms,
                                           double wall_ms) {
  if (build_ms < 0.0) build_ms = 0.0;
  if (wall_ms < 0.0) wall_ms = 0.0;
  double a = std::max(0.0, precompute_delta_ms);
  double b = std::max(0.0, cascading_delta_ms);
  if (a + b > wall_ms) {
    // Concurrent Prewarm/Run on a shared engine and multi-thread fills
    // both inflate the shared counters past this run's wall clock; scale
    // the shares down so the breakdown stays a partition of wall time.
    const double scale = (a + b) > 0.0 ? wall_ms / (a + b) : 0.0;
    a *= scale;
    b *= scale;
  }
  TimingBreakdown timing;
  timing.precompute_ms = build_ms + a;
  timing.cascading_ms = b;
  timing.segmentation_ms = std::max(0.0, wall_ms - a - b);
  timing.total_ms = build_ms + wall_ms;
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
    : table_(table), config_(std::move(config)) {
  TSE_CHECK_GE(table.num_time_buckets(), 3u)
      << "need at least three time buckets to segment";
  Timer build_timer;
  explain_by_ = ResolveExplainBy(table, config_.explain_by_names);
  measure_idx_ = ResolveMeasure(table, config_.measure);
  {
    // One grouping of the rows serves both the registry and the cube; it
    // is dropped as soon as the cube is built.
    TupleCells tuple_cells;
    registry_ = ExplanationRegistry::Build(table, explain_by_,
                                           config_.max_order, &tuple_cells);
    cube_ = std::make_unique<ExplanationCube>(
        table, registry_, tuple_cells, config_.aggregate, measure_idx_,
        ResolveThreadCount(config_.threads));
  }
  if (config_.smooth_window > 1) {
    cube_->SmoothInPlace(config_.smooth_window);
  }

  // Selectable mask: dedupe of equal-slice conjunctions, then the support
  // filter on top.
  canonical_count_ = registry_.num_explanations();
  active_count_ = registry_.num_explanations();
  if (config_.dedupe_redundant) {
    active_mask_ = ComputeCanonicalMask(*cube_, registry_);
    canonical_count_ = CountActive(active_mask_);
    active_count_ = canonical_count_;
  }
  if (config_.use_filter) {
    std::vector<bool> filter =
        ComputeSupportFilter(*cube_, config_.filter_ratio);
    active_mask_ = active_mask_.empty() ? std::move(filter)
                                        : AndMasks(active_mask_, filter);
    active_count_ = CountActive(active_mask_);
  }
  if (!config_.exclude.empty()) {
    std::vector<bool> allowed(registry_.num_explanations(), true);
    for (size_t e = 0; e < registry_.num_explanations(); ++e) {
      for (const Predicate& p :
           registry_.explanation(static_cast<ExplId>(e)).predicates()) {
        const std::string rendered = table_.PredicateString(p.attr, p.value);
        const std::string& value =
            table_.dictionary(p.attr).ToString(p.value);
        for (const std::string& banned : config_.exclude) {
          if (banned == rendered || banned == value) {
            allowed[e] = false;
          }
        }
      }
    }
    active_mask_ = active_mask_.empty() ? std::move(allowed)
                                        : AndMasks(active_mask_, allowed);
    active_count_ = CountActive(active_mask_);
  }

  SegmentExplainer::Options options;
  options.m = config_.m;
  options.metric = config_.diff_metric;
  options.use_guess_verify = config_.use_guess_verify;
  options.initial_guess = config_.initial_guess;
  options.active = active_mask_.empty() ? nullptr : &active_mask_;
  explainer_ =
      std::make_unique<SegmentExplainer>(*cube_, registry_, options);
  build_ms_ = build_timer.ElapsedMs();
}

TSExplainResult TSExplain::Run() {
  return Run(SegmentationSpec::FromConfig(config_));
}

TSExplainResult TSExplain::Run(const SegmentationSpec& spec) {
  Timer total_timer;
  const ExplainerTiming timing_before = explainer_->timing();

  TSExplainResult result;
  result.epsilon = canonical_count_;
  result.filtered_epsilon = active_count_;

  const int n = explainer_->n();
  VarianceCalculator calc(*explainer_, spec.variance_metric);

  // Candidate cut positions: all points, or the sketch (O2).
  std::vector<int> positions;
  if (spec.use_sketch) {
    SketchResult sketch = SelectSketch(calc, spec.sketch_params);
    result.sketch_positions = sketch.positions;
    positions = std::move(sketch.positions);
  } else {
    positions.resize(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);
  }

  // Module (c): weighted variance table + DP over the candidates.
  const VarianceTable table =
      VarianceTable::Compute(calc, positions, /*max_span=*/-1,
                             ResolveThreadCount(spec.threads));
  const int dp_max_k = spec.fixed_k > 0 ? spec.fixed_k : spec.max_k;
  KSegmentationDp dp(table, dp_max_k);
  result.k_variance_curve = dp.Curve();

  if (spec.fixed_k > 0) {
    int k = std::min(spec.fixed_k, dp.max_k());
    while (k > 1 && !dp.Feasible(k)) --k;
    result.chosen_k = k;
  } else {
    result.chosen_k = SelectElbowK(result.k_variance_curve);
  }
  result.segmentation = dp.Reconstruct(result.chosen_k);

  // Explain each final segment via two-relations diff on its endpoints.
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

  // Timing: explainer-internal buckets are modules (a)+(b); the remainder
  // of this call is module (c). Partition makes the buckets a
  // non-negative decomposition of this run's wall clock even when the
  // shared explainer counters were advanced by other threads too
  // (concurrent Prewarm / threads > 1 per-thread sums).
  const ExplainerTiming timing_after = explainer_->timing();
  result.timing = TimingBreakdown::Partition(
      build_ms_, timing_after.precompute_ms - timing_before.precompute_ms,
      timing_after.cascading_ms - timing_before.cascading_ms,
      total_timer.ElapsedMs());
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
    item.description = registry_.explanation(item.id).ToString(table_);
    item.gamma = top.gammas[r];
    item.tau = explainer_->Score(item.id, begin, end).tau;
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace tsexplain
