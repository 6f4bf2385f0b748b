// TSExplain pipeline facade: the system's primary public API.
//
// Wires together every module of Figure 7: (a) cube precomputation,
// (b) Cascading Analysts (optionally guess-and-verify, O1),
// (c) K-Segmentation with the NDCG variance (optionally sketched, O2),
// plus the support filter and the elbow-based optimal-K selection.
//
// Typical use:
//
//   TSExplainConfig config;
//   config.aggregate = AggregateFunction::kSum;
//   config.measure = "total_confirmed_cases";
//   config.explain_by_names = {"state"};
//   TSExplain engine(table, config);
//   TSExplainResult result = engine.Run();
//   for (const SegmentExplanation& seg : result.segments) { ... }

#ifndef TSEXPLAIN_PIPELINE_TSEXPLAIN_H_
#define TSEXPLAIN_PIPELINE_TSEXPLAIN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/precomputation.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"
#include "src/seg/elbow.h"
#include "src/seg/kseg_dp.h"
#include "src/seg/segment_explainer.h"
#include "src/seg/sketch.h"
#include "src/seg/variance.h"
#include "src/table/table.h"

namespace tsexplain {

/// Full pipeline configuration. Defaults mirror the paper's defaults:
/// m = 3, beta-bar = 3, absolute-change, tse variance, auto-K (elbow,
/// K <= 20), all optimizations off (VanillaTSExplain).
struct TSExplainConfig {
  // --- Query -------------------------------------------------------------
  AggregateFunction aggregate = AggregateFunction::kSum;
  /// Measure column name; empty means COUNT(*).
  std::string measure;
  /// Explain-by attribute names (must be dimensions of the table).
  std::vector<std::string> explain_by_names;
  /// Maximum explanation order beta-bar.
  int max_order = 3;
  /// Top-m explanations per segment.
  int m = 3;
  DiffMetricKind diff_metric = DiffMetricKind::kAbsoluteChange;
  VarianceMetric variance_metric = VarianceMetric::kTse;
  /// Moving-average smoothing window (1 = off).
  int smooth_window = 1;

  // --- Segmentation ------------------------------------------------------
  /// Fixed segment count; 0 selects K automatically via the elbow method.
  int fixed_k = 0;
  /// Upper bound for the auto-K search (paper: 20).
  int max_k = kMaxSegments;

  // --- Optimizations -----------------------------------------------------
  bool use_filter = false;         // support filter ("w filter")
  double filter_ratio = kDefaultFilterRatio;
  bool use_guess_verify = false;   // O1
  int initial_guess = kDefaultInitialGuess;
  bool use_sketch = false;         // O2
  SketchParams sketch_params;      // zeros = paper's empirical defaults
  /// Deduplicate equal-slice conjunctions (hierarchical attributes); on by
  /// default, matching the paper's epsilon accounting (see canonical_mask.h).
  bool dedupe_redundant = true;
  /// Worker threads for the parallel phases: cube build, the TopFor
  /// pre-warm fan-out (modules (a)+(b)), and the module (c) distance fill
  /// (1 = the paper's single-threaded setting; 0 = auto, i.e. hardware
  /// concurrency; results are identical at any thread count — asserted
  /// bit-exactly by tests/test_pipeline_determinism.cc and
  /// tests/test_parallel_core.cc).
  int threads = 1;
  /// Explanations touching any of these predicates never surface. Entries
  /// are "attr=value" strings (e.g. "state=unknown") or bare values (which
  /// exclude the value under every attribute). Analysts use this to mute
  /// trivial or garbage slices without re-loading data.
  std::vector<std::string> exclude;
};

/// One explanation within a segment, rendered for output.
struct ExplanationItem {
  ExplId id = kInvalidExplId;
  std::string description;  // e.g. "state=NY" or "BV=1750 & P=6"
  double gamma = 0.0;
  int tau = 0;  // +1 / -1 / 0 change effect

  /// "state=NY (+)" rendering used by the report printers.
  std::string ToString() const;
};

/// A segment of the final scheme with its top-m explanations.
struct SegmentExplanation {
  int begin = 0;
  int end = 0;
  std::string begin_label;
  std::string end_label;
  std::vector<ExplanationItem> top;
  /// Within-segment variance var(P) of this segment under the configured
  /// metric (paper Eq. 7; range [0, 1]).
  double variance = 0.0;
  /// True when this segment's variance is well above the scheme's average:
  /// its static top-explanation summarizes it poorly and the user should
  /// inspect it at a finer granularity (paper section 9's "hints for
  /// segments with higher variance").
  bool high_variance_hint = false;
};

/// The segmentation-only knobs of a query: everything module (c) reads
/// beyond the engine state (registry, cube, explainer caches). One hot
/// TSExplain instance answers Run(spec) for any spec — the explanation
/// service exploits this to share engines across queries that differ only
/// in K, variance metric, sketching, or thread count.
struct SegmentationSpec {
  /// Fixed segment count; 0 selects K automatically via the elbow method.
  int fixed_k = 0;
  /// Upper bound for the auto-K search (paper: 20).
  int max_k = kMaxSegments;
  VarianceMetric variance_metric = VarianceMetric::kTse;
  bool use_sketch = false;  // O2
  SketchParams sketch_params;
  /// Worker threads for the TopFor pre-warm fan-out and the module (c)
  /// distance fill (results are identical at any thread count; 0 = auto).
  int threads = 1;

  /// The spec a TSExplainConfig describes.
  static SegmentationSpec FromConfig(const TSExplainConfig& config);
};

/// The dimension ids of `names` in `table`, in the given order; aborts on
/// an unknown name or an empty list.
std::vector<AttrId> ResolveExplainBy(const Table& table,
                                     const std::vector<std::string>& names);

/// The measure index of `name` in `table`, -1 for "" (COUNT(*)); aborts on
/// an unknown name.
int ResolveMeasure(const Table& table, const std::string& name);

/// One layer of an engine's span tree (TSExplainResult::spans).
struct EngineLayer {
  const char* span;  // the span's name
  /// Recorded by the TSExplain constructor: an engine's first Run carries
  /// it as a child of its span root (the build is charged to the first
  /// run only); later runs carry only their own stages.
  bool build;
  /// The layer's always-on histogram, engine.<layer>_ms, which the
  /// explanation service observes after every engine run
  /// (docs/OBSERVABILITY.md).
  Histogram& ms;
};

/// Every layer the engine records, in tree order: the one list of the
/// layers' span names and metrics.
const std::vector<EngineLayer>& EngineLayers();

/// Whether `span_name` is a build layer (EngineLayer::build).
bool IsBuildLayer(const std::string& span_name);

/// Latency breakdown matching the paper's Figure 15 categories: a view
/// over a Run's finalized span tree (TSExplainResult::spans), so it is a
/// non-negative partition of the run's charged wall clock by
/// construction.
struct TimingBreakdown {
  double precompute_ms = 0.0;    // module (a): build layers + gamma fills
  double cascading_ms = 0.0;     // module (b): CA / guess-and-verify
  double segmentation_ms = 0.0;  // module (c): the rest of the run
  double total_ms = 0.0;         // the root: build (first run) + run
  double TotalMs() const {
    return precompute_ms + cascading_ms + segmentation_ms;
  }

  /// precompute = the build layers + every "cube.gamma_fill" span,
  /// cascading = every "diff.ca" span, total = the root, segmentation =
  /// total - precompute - cascading. `spans` must be finalized
  /// (QueryTrace::Finalize), which is what makes the sums fit the root.
  static TimingBreakdown FromSpans(const std::vector<TraceSpan>& spans);
};

/// Full pipeline output.
struct TSExplainResult {
  /// Chosen segmentation (cuts include both endpoints).
  Segmentation segmentation;
  int chosen_k = 0;
  /// D(n, K) for K = 1..max_k (K-variance curve; infeasible = +inf).
  std::vector<double> k_variance_curve;
  /// Evolving explanations: one entry per segment, in time order.
  std::vector<SegmentExplanation> segments;
  /// This run's layers as a finalized span tree (children tile every
  /// parent). The root "engine" spans the build (first run only) plus the
  /// run; its children are the layers — "diff.registry_build",
  /// "cube.build", "cube.mask", "seg.explainer_init" (first run only),
  /// then "seg.sketch", "seg.variance_table", "seg.dp", "seg.elbow",
  /// "pipeline.segment_explain" — and under each stage the time the
  /// explainer spent in it, summed over calls and threads, as
  /// "cube.gamma_fill" and "diff.ca".
  std::vector<TraceSpan> spans;
  /// Figure 15's buckets, derived from `spans`.
  TimingBreakdown timing;
  /// Candidate explanation counts before/after the support filter.
  size_t epsilon = 0;
  size_t filtered_epsilon = 0;
  /// Sketch positions when O2 ran (empty otherwise).
  std::vector<int> sketch_positions;
};

/// The TSExplain engine. Holds the registry and cube partials (module (a),
/// possibly shared with other engines, see src/cube/precomputation.h) plus
/// its own finalization, masks and explainer caches; one instance answers
/// repeated Run() calls (e.g. with different fixed_k) without re-scanning
/// the relation.
class TSExplain {
 public:
  /// Builds the registry and cube from `table` (module (a) precomputation).
  TSExplain(const Table& table, TSExplainConfig config);

  /// Same engine, with its registry and cube partials derived from
  /// `source` instead of the rows (Precomputation::Project; shared with
  /// `source` when its explain-by set and order are this engine's).
  /// `source` must be built on `table` for this config's measure and
  /// cover its explain-by set and order; nullptr builds from the rows.
  /// `charged` is time the caller spent building `source` for this
  /// engine; it is added to the engine's build layers.
  TSExplain(const Table& table, TSExplainConfig config,
            const Precomputation* source,
            Precomputation::Cost charged = {});

  /// Runs segmentation + per-segment explanation per the configuration.
  TSExplainResult Run();

  /// Same, but with the segmentation knobs overridden: the engine state
  /// (cube, caches, masks) is untouched, so one instance serves arbitrary
  /// spec variations of its query without re-scanning the relation. The
  /// DP cuts only at `candidates` (sorted positions including 0 and n-1)
  /// when given; nullptr picks them from the spec (the sketch under O2,
  /// else every point). A streaming session passes its old cuts plus the
  /// newly arrived points (paper section 8).
  TSExplainResult Run(const SegmentationSpec& spec,
                      const std::vector<int>* candidates = nullptr);

  /// Absorbs rows [first_row, table().num_rows()), appended to the table
  /// as one new time bucket, into the cube, and refreshes the selectable
  /// mask (cached explanations of old segments stay valid: gamma depends
  /// only on the endpoint partials). Returns false, without touching the
  /// engine, when it cannot follow the table incrementally: a row holds a
  /// never-seen cell, smoothing is on, or the table did not grow by
  /// exactly one bucket. The caller then builds a new engine.
  bool AppendBucket(size_t first_row);

  /// Recomputes the total variance of an arbitrary scheme under this
  /// engine's metric at unit-object granularity (used for Table 7 quality
  /// comparisons; cuts must include both endpoints).
  double EvaluateScheme(const std::vector<int>& cuts);

  /// Component access for tests, benches, and power users ----------------
  const Table& table() const { return table_; }
  const ExplanationRegistry& registry() const { return *registry_; }
  const ExplanationCube& cube() const { return *cube_; }
  SegmentExplainer& explainer() { return *explainer_; }
  const TSExplainConfig& config() const { return config_; }

  /// Renders the top explanations of an arbitrary segment (two-relations
  /// diff on its endpoints, paper section 3.1).
  std::vector<ExplanationItem> ExplainSegment(int begin, int end);

 private:
  /// Recomputes the selectable mask and its counts from the cube; returns
  /// whether the mask changed.
  bool RefreshActiveMask();

  const Table& table_;
  TSExplainConfig config_;
  std::vector<AttrId> explain_by_;
  int measure_idx_ = -1;
  std::shared_ptr<const ExplanationRegistry> registry_;
  std::unique_ptr<ExplanationCube> cube_;
  /// Combined selectable mask: canonical (dedupe) AND support filter AND
  /// exclude list. Empty when no option is enabled.
  std::vector<bool> active_mask_;
  /// Cells the exclude list leaves selectable (empty = no exclude list).
  /// Depends on the registry alone, so it is computed once per build.
  std::vector<bool> exclude_mask_;
  size_t canonical_count_ = 0;
  size_t active_count_ = 0;
  std::unique_ptr<SegmentExplainer> explainer_;
  /// The constructor's layers, under a root holding its wall clock;
  /// charged to the first Run, then cleared.
  std::vector<TraceSpan> build_spans_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_PIPELINE_TSEXPLAIN_H_
