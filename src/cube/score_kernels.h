// Vectorized batch-scoring kernels behind ExplanationCube::ScoreAll.
//
// One segment's gamma sweep reads four contiguous SoA streams (slice sums
// + counts at the two endpoints) and applies ComputeDiff per candidate —
// the hottest loop in the system (docs/PERF.md "SIMD scoring"). The same
// pass applies the active mask and, when asked, makes guess-and-verify's
// first selection (docs/PERF.md "Cold path: one pass per segment"): an
// inactive cell scores 0.0, and every cell beating the selection's running
// floor is offered to a TopCells as it is scored. The AVX2
// kernels process four candidates per iteration and are BIT-IDENTICAL to
// the scalar reference for every AggregateFunction x DiffMetricKind pair:
// same elementwise IEEE operation order, abs as a sign-bit mask, guarded
// divisions blended away instead of taken, and the scalar-uniform branches
// (|delta| < eps, |overall_rate| < eps) hoisted out of the lane loop.
// tests/test_simd_score.cc asserts the identity exhaustively.
//
// Dispatch policy: the AVX2 path runs only when (a) it was compiled in
// (CMake -DTSEXPLAIN_SIMD=ON, x86-64 only), (b) the CPU reports AVX2 at
// runtime, and (c) TSE_FORCE_SCALAR=1 is not set in the environment.
// Everything else — other ISAs, older x86, the scalar-dispatch CI job —
// takes the scalar reference. No global -mavx2: the kernels carry
// function-level target attributes, so the rest of the binary stays
// baseline-ISA clean.

#ifndef TSEXPLAIN_CUBE_SCORE_KERNELS_H_
#define TSEXPLAIN_CUBE_SCORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/diff/diff_metrics.h"
#include "src/diff/top_cells.h"
#include "src/table/group_by.h"

namespace tsexplain {

/// One segment's batch-scoring job: overall partials + finalized overall
/// values at the two endpoints, the four contiguous candidate streams
/// (length `epsilon` each), and optionally a mask and a selection.
struct ScoreAllInputs {
  AggregateFunction f = AggregateFunction::kSum;
  DiffMetricKind kind = DiffMetricKind::kAbsoluteChange;
  AggState overall_test;
  AggState overall_control;
  double f_test = 0.0;
  double f_control = 0.0;
  const double* test_sums = nullptr;
  const double* test_counts = nullptr;
  const double* control_sums = nullptr;
  const double* control_counts = nullptr;
  size_t epsilon = 0;
  /// Active cells, packed by PackActiveMask (nullptr = all active).
  /// Inactive cells score 0.0.
  const uint64_t* active = nullptr;
  /// When non-null (and Reset by the caller), every cell whose gamma
  /// beats top->floor() is offered to it in ascending id order, and it is
  /// finished after the sweep: it then holds the best top->need() cells,
  /// exactly as SelectTop over the output would.
  TopCells* top = nullptr;
};

/// A cell mask in ScoreAllInputs::active's layout: cell e is bit e % 64 of
/// word e / 64; bits past the mask's end are 0.
std::vector<uint64_t> PackActiveMask(const std::vector<bool>& mask);

/// Scalar reference: exactly Score()'s arithmetic per active candidate
/// (AggState::Finalize + ComputeDiff). The fallback and the ground truth
/// the vectorized path is asserted against.
void ScoreAllScalar(const ScoreAllInputs& in, double* out);

/// Runs the AVX2 kernel unconditionally (ignoring TSE_FORCE_SCALAR).
/// Returns false — leaving `out` untouched — when AVX2 is compiled out or
/// the CPU lacks it. Exposed for the bit-identity tests and the
/// bench_micro_core speedup gate; production code calls ScoreAllAuto.
bool ScoreAllAvx2(const ScoreAllInputs& in, double* out);

/// The production dispatch: AVX2 when available and not disabled via
/// TSE_FORCE_SCALAR=1, scalar otherwise.
void ScoreAllAuto(const ScoreAllInputs& in, double* out);

/// True when ScoreAllAuto will take the AVX2 path (compiled in + CPU
/// support + not forced off). Stable after the first call.
bool ScoreAllUsesSimd();

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_SCORE_KERNELS_H_
