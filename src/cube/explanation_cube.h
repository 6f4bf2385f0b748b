// Explanation cube: precomputation module (a) of the pipeline (Figure 7).
//
// For every candidate explanation E the cube materializes the aggregated
// time series of its slice, ts(sigma_E R), as decomposable (sum, count)
// partials. Because the aggregate is decomposable, the "without E" series
// ts(R - sigma_E R) is derived by subtracting partials; the diff score
// gamma(E) for ANY segment [t_c, t_t] is then O(1) (paper section 5.2).
//
// Layout: slice partials are stored as flat structure-of-arrays, TIME-major
// (`slice_sums[t * epsilon + e]`). Time-major wins on both hot access
// patterns: the per-segment batch scorer (ScoreAll) sweeps every candidate
// at two fixed endpoints -- two contiguous streams -- and the streaming
// AppendBucket is a contiguous append of one epsilon-sized block. The
// finalized overall series is cached (`overall_fin_`) so no scoring path
// ever re-finalizes the overall aggregate per candidate.
//
// The partials do not depend on the aggregate function -- only finalizing
// does -- so they live in a CubePartials that cubes share (engines over
// the same rows, measure and cells whatever their aggregate) or derive
// from (engines whose cells are a subset of another's, Gather). Shared
// partials are never written: a cube that owns its partials alone (a
// streaming session's) appends in place; one that shares them copies
// first.

#ifndef TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_
#define TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/diff/diff_metrics.h"
#include "src/diff/explanation_registry.h"
#include "src/diff/top_cells.h"
#include "src/table/group_by.h"
#include "src/table/table.h"
#include "src/ts/time_series.h"

namespace tsexplain {

/// The aggregate-independent content of a cube: every cell's (sum, count)
/// partials per time bucket, the overall partials and the time labels.
struct CubePartials {
  size_t num_explanations = 0;
  std::vector<AggState> overall;   // [t]
  // Time-major SoA slice partials: index [t * num_explanations + e].
  std::vector<double> slice_sums;
  std::vector<double> slice_counts;
  std::vector<std::string> time_labels;

  /// Scans `table` once, accumulating partials for the `num_explanations`
  /// cells `tuple_cells` (the grouping of all of `table`'s rows) assigns.
  /// `measure_idx` of -1 means COUNT(*) semantics. `threads` > 1 partitions
  /// the scan by time bucket over the shared ThreadPool; every (cell, t)
  /// partial still accumulates its rows in ascending row order, so the
  /// result is bit-identical at any thread count (and to the serial scan).
  static std::shared_ptr<const CubePartials> Accumulate(
      const Table& table, size_t num_explanations,
      const TupleCells& tuple_cells, int measure_idx, int threads = 1);

  /// The partials of `cells` (ids into these partials), in that order:
  /// column s of the result is column cells[s] of these. A cell's partial
  /// sums the rows of its slice in ascending row order whichever registry
  /// numbered it, so this is bit-identical to accumulating the table over
  /// a registry whose cell s is cells[s]'s explanation.
  std::shared_ptr<const CubePartials> Gather(
      const std::vector<ExplId>& cells) const;
};

/// Materialized per-explanation time-series partials + the overall series.
class ExplanationCube {
 public:
  /// Scans `table` once, accumulating partials for every registry cell
  /// (see CubePartials::Accumulate).
  ExplanationCube(const Table& table, const ExplanationRegistry& registry,
                  AggregateFunction f, int measure_idx, int threads = 1);

  /// Same cube, accumulated over the row grouping `registry` was built
  /// with (ExplanationRegistry::Build's `tuple_cells` for this `table`), so
  /// the rows are not grouped a second time.
  ExplanationCube(const Table& table, const ExplanationRegistry& registry,
                  const TupleCells& tuple_cells, AggregateFunction f,
                  int measure_idx, int threads = 1);

  /// A cube finalizing `partials` under `f`, sharing them.
  ExplanationCube(std::shared_ptr<const CubePartials> partials,
                  AggregateFunction f);

  /// Number of time buckets.
  size_t n() const { return partials_->overall.size(); }

  /// Number of candidate explanations covered (epsilon).
  size_t num_explanations() const { return partials_->num_explanations; }

  AggregateFunction aggregate() const { return f_; }

  /// The partials this cube finalizes (shared with other cubes).
  const std::shared_ptr<const CubePartials>& partials() const {
    return partials_;
  }

  /// Finalized overall aggregate at time t: f(M, R at t). Cached.
  double Overall(size_t t) const { return overall_fin_[t]; }

  /// Finalized slice aggregate at time t: f(M, sigma_E R at t).
  double SliceValue(ExplId e, size_t t) const {
    const size_t idx =
        t * partials_->num_explanations + static_cast<size_t>(e);
    return AggState{partials_->slice_sums[idx], partials_->slice_counts[idx]}
        .Finalize(f_);
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
  /// vectors.
  void ScoreAll(DiffMetricKind kind, size_t t_control, size_t t_test,
                const std::vector<bool>* active,
                std::vector<double>* gammas) const;

  /// ScoreAll with the mask packed (PackActiveMask; nullptr = all active)
  /// and, when `top` is non-null, guess-and-verify's first selection made
  /// in the same pass: `top` (Reset by the caller) ends holding the best
  /// top->need() cells of the output (see ScoreAllInputs::top). This is
  /// the hottest loop in the system (every cache-miss TopFor runs it).
  void ScoreSelect(DiffMetricKind kind, size_t t_control, size_t t_test,
                   const uint64_t* active, std::vector<double>* gammas,
                   TopCells* top) const;

  /// Dense overall aggregated series (with time labels).
  TimeSeries OverallSeries() const;

  /// Dense slice series for one explanation.
  TimeSeries SliceSeries(ExplId e) const;

  /// Appends one new time bucket of partials (streaming extension,
  /// section 8). `slice_partials` must be aligned with the registry ids and
  /// `overall` must equal the sum over disjoint order-1 slices. In place
  /// when this cube owns its partials alone; shared ones are copied first.
  void AppendBucket(const AggState& overall,
                    const std::vector<AggState>& slice_partials,
                    const std::string& label = "");

  /// Smooths every partial series with a trailing moving average of window
  /// `w` (paper section 7.4: fuzzy datasets are smoothed before being
  /// explained). Averaging the (sum, count) partials is a linear operation,
  /// so decomposability -- and hence O(1) diff scores -- is preserved.
  /// The smoothed partials replace this cube's; shared ones are untouched.
  void SmoothInPlace(int w);

 private:
  void RefreshOverallCache();

  AggregateFunction f_;
  std::shared_ptr<const CubePartials> partials_;
  std::vector<double> overall_fin_;  // [t], Finalize(f_) of overall
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_EXPLANATION_CUBE_H_
