#include "src/cube/explanation_cube.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/cube/score_kernels.h"

namespace tsexplain {
namespace {

// The grouping of every row of `table` against `registry` (the registry's
// own build table, or one sharing its dictionaries and cells).
TupleCells ResolveAllRows(const Table& table,
                          const ExplanationRegistry& registry) {
  TupleCells tuple_cells;
  const bool covered =
      registry.ResolveRows(table, /*first_row=*/0, &tuple_cells);
  TSE_CHECK(covered) << "table has cells the registry does not cover";
  return tuple_cells;
}

}  // namespace

std::shared_ptr<const CubePartials> CubePartials::Accumulate(
    const Table& table, size_t num_explanations,
    const TupleCells& tuple_cells, int measure_idx, int threads) {
  if (measure_idx >= 0) {
    TSE_CHECK_LT(static_cast<size_t>(measure_idx),
                 table.schema().num_measures());
  }
  const size_t num_rows = table.num_rows();
  TSE_CHECK_EQ(tuple_cells.first_row, 0u);
  TSE_CHECK_EQ(tuple_cells.row_tuple.size(), num_rows);
  const size_t n = table.num_time_buckets();
  const size_t epsilon = num_explanations;
  auto out = std::make_shared<CubePartials>();
  out->num_explanations = epsilon;
  out->time_labels = table.time_labels();
  out->overall.assign(n, AggState{});
  out->slice_sums.assign(n * epsilon, 0.0);
  out->slice_counts.assign(n * epsilon, 0.0);

  // Pass 1 (serial): bucket rows by time with a stable counting sort, so
  // each bucket lists its rows in ascending row order. A row's cells are
  // its explain-by tuple's: the registry grouped the rows and resolved
  // each distinct tuple's cells once, so nothing here hashes or looks up.
  std::vector<size_t> bucket_start(n + 1, 0);
  std::vector<uint32_t> rows_by_time(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    ++bucket_start[static_cast<size_t>(table.time(row)) + 1];
  }
  for (size_t t = 0; t < n; ++t) bucket_start[t + 1] += bucket_start[t];
  {
    std::vector<size_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (size_t row = 0; row < num_rows; ++row) {
      rows_by_time[cursor[static_cast<size_t>(table.time(row))]++] =
          static_cast<uint32_t>(row);
    }
  }

  // Pass 2: accumulate. Workers own DISJOINT time ranges, so every
  // (cell, t) partial accumulates its rows in the exact same ascending row
  // order at any thread count -- the parallel build is bit-identical to
  // the serial one, with no merge step and no per-worker cube copies.
  auto accumulate_buckets = [&](size_t t_lo, size_t t_hi) {
    for (size_t t = t_lo; t < t_hi; ++t) {
      double* sums = out->slice_sums.data() + t * epsilon;
      double* counts = out->slice_counts.data() + t * epsilon;
      for (size_t pos = bucket_start[t]; pos < bucket_start[t + 1]; ++pos) {
        const size_t row = rows_by_time[pos];
        const double value =
            measure_idx < 0 ? 1.0 : table.measure(row, measure_idx);
        out->overall[t].Add(value);
        const ExplId* cells = tuple_cells.CellsOfRow(row);
        for (size_t s = 0; s < tuple_cells.cells_per_tuple; ++s) {
          sums[static_cast<size_t>(cells[s])] += value;
          counts[static_cast<size_t>(cells[s])] += 1.0;
        }
      }
    }
  };

  if (threads <= 1 || n < 2 || num_rows < 4096) {
    accumulate_buckets(0, n);
  } else {
    // Over-partition relative to the thread count so dynamic assignment
    // balances skewed buckets; task boundaries cannot affect the result
    // (disjoint time ranges, fixed within-bucket order).
    const size_t num_tasks =
        std::min(n, static_cast<size_t>(threads) * 4);
    ThreadPool::Shared().ParallelFor(num_tasks, threads, [&](size_t task) {
      accumulate_buckets(n * task / num_tasks, n * (task + 1) / num_tasks);
    });
  }
  return out;
}

std::shared_ptr<const CubePartials> CubePartials::Gather(
    const std::vector<ExplId>& cells) const {
  const size_t n = overall.size();
  const size_t from = num_explanations;
  const size_t to = cells.size();
  auto out = std::make_shared<CubePartials>();
  out->num_explanations = to;
  out->overall = overall;
  out->time_labels = time_labels;
  out->slice_sums.resize(n * to);
  out->slice_counts.resize(n * to);
  for (size_t t = 0; t < n; ++t) {
    const double* in_s = slice_sums.data() + t * from;
    const double* in_c = slice_counts.data() + t * from;
    double* out_s = out->slice_sums.data() + t * to;
    double* out_c = out->slice_counts.data() + t * to;
    for (size_t s = 0; s < to; ++s) {
      const size_t e = static_cast<size_t>(cells[s]);
      out_s[s] = in_s[e];
      out_c[s] = in_c[e];
    }
  }
  return out;
}

ExplanationCube::ExplanationCube(const Table& table,
                                 const ExplanationRegistry& registry,
                                 AggregateFunction f, int measure_idx,
                                 int threads)
    : ExplanationCube(table, registry, ResolveAllRows(table, registry), f,
                      measure_idx, threads) {}

ExplanationCube::ExplanationCube(const Table& table,
                                 const ExplanationRegistry& registry,
                                 const TupleCells& tuple_cells,
                                 AggregateFunction f, int measure_idx,
                                 int threads)
    : ExplanationCube(
          CubePartials::Accumulate(table, registry.num_explanations(),
                                   tuple_cells, measure_idx, threads),
          f) {}

ExplanationCube::ExplanationCube(std::shared_ptr<const CubePartials> partials,
                                 AggregateFunction f)
    : f_(f), partials_(std::move(partials)) {
  TSE_CHECK(partials_ != nullptr);
  RefreshOverallCache();
}

void ExplanationCube::RefreshOverallCache() {
  const std::vector<AggState>& overall = partials_->overall;
  overall_fin_.resize(overall.size());
  for (size_t t = 0; t < overall.size(); ++t) {
    overall_fin_[t] = overall[t].Finalize(f_);
  }
}

DiffScore ExplanationCube::Score(DiffMetricKind kind, ExplId e,
                                 size_t t_control, size_t t_test) const {
  TSE_CHECK_LT(t_control, n());
  TSE_CHECK_LT(t_test, n());
  const CubePartials& p = *partials_;
  const AggState& ot = p.overall[t_test];
  const AggState& oc = p.overall[t_control];
  const size_t it = t_test * p.num_explanations + static_cast<size_t>(e);
  const size_t ic = t_control * p.num_explanations + static_cast<size_t>(e);
  const double f_test_wo =
      AggState{ot.sum - p.slice_sums[it], ot.count - p.slice_counts[it]}
          .Finalize(f_);
  const double f_control_wo =
      AggState{oc.sum - p.slice_sums[ic], oc.count - p.slice_counts[ic]}
          .Finalize(f_);
  return ComputeDiff(kind, overall_fin_[t_test], overall_fin_[t_control],
                     f_test_wo, f_control_wo);
}

void ExplanationCube::ScoreAll(DiffMetricKind kind, size_t t_control,
                               size_t t_test,
                               const std::vector<bool>* active,
                               std::vector<double>* gammas) const {
  if (active == nullptr) {
    ScoreSelect(kind, t_control, t_test, nullptr, gammas, nullptr);
    return;
  }
  TSE_CHECK_EQ(active->size(), num_explanations());
  const std::vector<uint64_t> packed = PackActiveMask(*active);
  ScoreSelect(kind, t_control, t_test, packed.data(), gammas, nullptr);
}

void ExplanationCube::ScoreSelect(DiffMetricKind kind, size_t t_control,
                                  size_t t_test, const uint64_t* active,
                                  std::vector<double>* gammas,
                                  TopCells* top) const {
  TSE_CHECK_LT(t_control, n());
  TSE_CHECK_LT(t_test, n());
  const CubePartials& p = *partials_;
  const size_t epsilon = p.num_explanations;
  TSE_CHECK_EQ(gammas->size(), epsilon);
  ScoreAllInputs in;
  in.f = f_;
  in.kind = kind;
  in.overall_test = p.overall[t_test];
  in.overall_control = p.overall[t_control];
  in.f_test = overall_fin_[t_test];
  in.f_control = overall_fin_[t_control];
  in.test_sums = p.slice_sums.data() + t_test * epsilon;
  in.test_counts = p.slice_counts.data() + t_test * epsilon;
  in.control_sums = p.slice_sums.data() + t_control * epsilon;
  in.control_counts = p.slice_counts.data() + t_control * epsilon;
  in.epsilon = epsilon;
  in.active = active;
  in.top = top;
  // Kernel dispatch (scalar reference or bit-identical AVX2 — see
  // src/cube/score_kernels.h for the policy).
  ScoreAllAuto(in, gammas->data());
}

TimeSeries ExplanationCube::OverallSeries() const {
  TimeSeries out;
  out.labels = partials_->time_labels;
  out.values = overall_fin_;
  return out;
}

TimeSeries ExplanationCube::SliceSeries(ExplId e) const {
  TSE_CHECK_GE(e, 0);
  TSE_CHECK_LT(static_cast<size_t>(e), num_explanations());
  TimeSeries out;
  out.labels = partials_->time_labels;
  out.values.resize(n());
  for (size_t t = 0; t < n(); ++t) out.values[t] = SliceValue(e, t);
  return out;
}

namespace {

// Trailing moving average over AggState partials (clipped at the start so
// the output length is unchanged).
void SmoothPartials(std::vector<AggState>* series, int w) {
  const size_t n = series->size();
  std::vector<AggState> out(n);
  AggState window{};
  for (size_t i = 0; i < n; ++i) {
    window.Merge((*series)[i]);
    if (i >= static_cast<size_t>(w)) {
      window = window.Minus((*series)[i - static_cast<size_t>(w)]);
    }
    const double count = static_cast<double>(
        std::min(i + 1, static_cast<size_t>(w)));
    out[i] = AggState{window.sum / count, window.count / count};
  }
  *series = std::move(out);
}

}  // namespace

void ExplanationCube::SmoothInPlace(int w) {
  TSE_CHECK_GE(w, 1);
  if (w == 1) return;
  const CubePartials& in = *partials_;
  auto out = std::make_shared<CubePartials>();
  out->num_explanations = in.num_explanations;
  out->time_labels = in.time_labels;
  out->overall = in.overall;
  SmoothPartials(&out->overall, w);
  // Slice smoothing sweeps time-major: one epsilon-wide window accumulator
  // advances over contiguous rows, performing the exact same per-slice
  // arithmetic sequence as smoothing each slice on its own (bit-identical),
  // without the strided per-slice walks the SoA layout would otherwise pay.
  const size_t n = this->n();
  const size_t epsilon = in.num_explanations;
  std::vector<double> win_sum(epsilon, 0.0);
  std::vector<double> win_count(epsilon, 0.0);
  out->slice_sums.resize(n * epsilon);
  out->slice_counts.resize(n * epsilon);
  for (size_t t = 0; t < n; ++t) {
    const double* in_s = in.slice_sums.data() + t * epsilon;
    const double* in_c = in.slice_counts.data() + t * epsilon;
    double* out_s = out->slice_sums.data() + t * epsilon;
    double* out_c = out->slice_counts.data() + t * epsilon;
    const double denom =
        static_cast<double>(std::min(t + 1, static_cast<size_t>(w)));
    if (t >= static_cast<size_t>(w)) {
      const double* old_s =
          in.slice_sums.data() + (t - static_cast<size_t>(w)) * epsilon;
      const double* old_c =
          in.slice_counts.data() + (t - static_cast<size_t>(w)) * epsilon;
      for (size_t e = 0; e < epsilon; ++e) {
        win_sum[e] += in_s[e];
        win_count[e] += in_c[e];
        win_sum[e] -= old_s[e];
        win_count[e] -= old_c[e];
        out_s[e] = win_sum[e] / denom;
        out_c[e] = win_count[e] / denom;
      }
    } else {
      for (size_t e = 0; e < epsilon; ++e) {
        win_sum[e] += in_s[e];
        win_count[e] += in_c[e];
        out_s[e] = win_sum[e] / denom;
        out_c[e] = win_count[e] / denom;
      }
    }
  }
  partials_ = std::move(out);
  RefreshOverallCache();
}

void ExplanationCube::AppendBucket(const AggState& overall,
                                   const std::vector<AggState>& slice_partials,
                                   const std::string& label) {
  TSE_CHECK_EQ(slice_partials.size(), num_explanations());
  if (partials_.use_count() > 1) {
    partials_ = std::make_shared<CubePartials>(*partials_);
  }
  // This cube is now the partials' only owner, and every CubePartials is
  // created non-const (make_shared<CubePartials>), so writing is defined.
  CubePartials& p = const_cast<CubePartials&>(*partials_);
  p.overall.push_back(overall);
  overall_fin_.push_back(overall.Finalize(f_));
  // No reserve: push_back's geometric growth keeps repeated streaming
  // appends amortized O(1); an exact-size reserve here would force a full
  // SoA copy on every bucket.
  for (const AggState& partial : slice_partials) {
    p.slice_sums.push_back(partial.sum);
    p.slice_counts.push_back(partial.count);
  }
  p.time_labels.push_back(
      label.empty() ? std::to_string(p.time_labels.size()) : label);
}

}  // namespace tsexplain
