// Explanation cube: precomputation module (a) of the pipeline (Figure 7).
//
// For every candidate explanation E the cube materializes the aggregated
// time series of its slice, ts(sigma_E R), as decomposable (sum, count)
// partials. Because the aggregate is decomposable, the "without E" series
// ts(R - sigma_E R) is derived by subtracting partials; the diff score
// gamma(E) for ANY segment [t_c, t_t] is then O(1) (paper section 5.2).
//
// Layout: slice partials are stored as flat structure-of-arrays, TIME-major
// (`slice_sums_[t * epsilon + e]`). Time-major wins on both hot access
// patterns: the per-segment batch scorer (ScoreAll) sweeps every candidate
// at two fixed endpoints -- two contiguous streams -- and the streaming
// AppendBucket is a contiguous append of one epsilon-sized block. The
// finalized overall series is cached (`overall_fin_`) so no scoring path
// ever re-finalizes the overall aggregate per candidate.

#ifndef TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_
#define TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_

#include <vector>

#include "src/diff/diff_metrics.h"
#include "src/diff/explanation_registry.h"
#include "src/table/group_by.h"
#include "src/table/table.h"
#include "src/ts/time_series.h"

namespace tsexplain {

/// Materialized per-explanation time-series partials + the overall series.
class ExplanationCube {
 public:
  /// Scans `table` once, accumulating partials for every registry cell.
  /// `measure_idx` of -1 means COUNT(*) semantics. `threads` > 1 partitions
  /// the scan by time bucket over the shared ThreadPool; every (cell, t)
  /// partial still accumulates its rows in ascending row order, so the
  /// result is bit-identical at any thread count (and to the serial scan).
  ExplanationCube(const Table& table, const ExplanationRegistry& registry,
                  AggregateFunction f, int measure_idx, int threads = 1);

  /// Same cube, accumulated over the row grouping `registry` was built
  /// with (ExplanationRegistry::Build's `tuple_cells` for this `table`), so
  /// the rows are not grouped a second time.
  ExplanationCube(const Table& table, const ExplanationRegistry& registry,
                  const TupleCells& tuple_cells, AggregateFunction f,
                  int measure_idx, int threads = 1);

  /// Number of time buckets.
  size_t n() const { return overall_.size(); }

  /// Number of candidate explanations covered (epsilon).
  size_t num_explanations() const { return num_explanations_; }

  AggregateFunction aggregate() const { return f_; }

  /// Finalized overall aggregate at time t: f(M, R at t). Cached.
  double Overall(size_t t) const { return overall_fin_[t]; }

  /// Finalized slice aggregate at time t: f(M, sigma_E R at t).
  double SliceValue(ExplId e, size_t t) const {
    const size_t idx = t * num_explanations_ + static_cast<size_t>(e);
    return AggState{slice_sums_[idx], slice_counts_[idx]}.Finalize(f_);
  }

  /// gamma(E) and tau(E) for the segment with control endpoint `t_control`
  /// and test endpoint `t_test` (Definitions 3.2/3.3). O(1).
  DiffScore Score(DiffMetricKind kind, ExplId e, size_t t_control,
                  size_t t_test) const;

  /// Batch module (a): gamma(E) for EVERY candidate on one segment, filling
  /// `gammas` (must be sized num_explanations()). Cells where `active` is
  /// false (nullptr = all active) score 0. Bit-identical to calling Score
  /// per candidate, but hoists the overall finalization out of the loop and
  /// sweeps two contiguous SoA streams instead of chasing per-slice heap
  /// vectors. This is the hottest loop in the system (every cache-miss
  /// TopFor runs it).
  void ScoreAll(DiffMetricKind kind, size_t t_control, size_t t_test,
                const std::vector<bool>* active,
                std::vector<double>* gammas) const;

  /// Dense overall aggregated series (with time labels).
  TimeSeries OverallSeries() const;

  /// Dense slice series for one explanation.
  TimeSeries SliceSeries(ExplId e) const;

  /// Appends one new time bucket of partials (streaming extension,
  /// section 8). `slice_partials` must be aligned with the registry ids and
  /// `overall` must equal the sum over disjoint order-1 slices.
  void AppendBucket(const AggState& overall,
                    const std::vector<AggState>& slice_partials,
                    const std::string& label = "");

  /// Smooths every partial series with a trailing moving average of window
  /// `w` (paper section 7.4: fuzzy datasets are smoothed before being
  /// explained). Averaging the (sum, count) partials is a linear operation,
  /// so decomposability -- and hence O(1) diff scores -- is preserved.
  void SmoothInPlace(int w);

 private:
  void RefreshOverallCache();

  AggregateFunction f_;
  size_t num_explanations_ = 0;
  std::vector<AggState> overall_;    // [t]
  std::vector<double> overall_fin_;  // [t], Finalize(f_) of overall_
  // Time-major SoA slice partials: index [t * num_explanations_ + e].
  std::vector<double> slice_sums_;
  std::vector<double> slice_counts_;
  std::vector<std::string> time_labels_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_
