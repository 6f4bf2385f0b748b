#include "src/cube/score_kernels.h"

#include <cmath>
#include <cstdlib>

#if defined(TSEXPLAIN_ENABLE_AVX2) && defined(__x86_64__)
#define TSE_SCORE_AVX2 1
#include <immintrin.h>
#endif

namespace tsexplain {

std::vector<uint64_t> PackActiveMask(const std::vector<bool>& mask) {
  std::vector<uint64_t> bits((mask.size() + 63) / 64, 0);
  for (size_t e = 0; e < mask.size(); ++e) {
    if (mask[e]) bits[e / 64] |= uint64_t{1} << (e % 64);
  }
  return bits;
}

namespace {

bool IsActive(const uint64_t* active, size_t e) {
  return active == nullptr || ((active[e / 64] >> (e % 64)) & 1) != 0;
}

// One candidate's gamma: exactly Score()'s arithmetic.
inline double GammaOf(const ScoreAllInputs& in, AggregateFunction f,
                      DiffMetricKind kind, size_t e) {
  const AggState ot = in.overall_test;
  const AggState oc = in.overall_control;
  const double f_test_wo =
      AggState{ot.sum - in.test_sums[e], ot.count - in.test_counts[e]}
          .Finalize(f);
  const double f_control_wo =
      AggState{oc.sum - in.control_sums[e], oc.count - in.control_counts[e]}
          .Finalize(f);
  return ComputeDiff(kind, in.f_test, in.f_control, f_test_wo, f_control_wo)
      .gamma;
}

// Scores candidates [first, in.epsilon) one at a time, masking and
// offering each to the selection. `in` is a copy, so the stores to `out`
// (which may alias the caller's inputs) do not force a reload of its
// fields per candidate.
inline void ScoreTail(const ScoreAllInputs in, AggregateFunction f,
                      DiffMetricKind kind, size_t first, double* out) {
  for (size_t e = first; e < in.epsilon; ++e) {
    if (!IsActive(in.active, e)) {
      out[e] = 0.0;
      continue;
    }
    out[e] = GammaOf(in, f, kind, e);
    if (in.top != nullptr && out[e] > in.top->floor()) {
      in.top->Push(out[e], static_cast<ExplId>(e));
    }
  }
}

}  // namespace

void ScoreAllScalar(const ScoreAllInputs& inputs, double* out) {
  const ScoreAllInputs in = inputs;  // a copy, as in ScoreTail
  if (in.active == nullptr && in.top == nullptr) {
    // The plain sweep, without the per-cell mask and selection tests.
    for (size_t e = 0; e < in.epsilon; ++e) {
      out[e] = GammaOf(in, in.f, in.kind, e);
    }
    return;
  }
  ScoreTail(in, in.f, in.kind, 0, out);
  if (in.top != nullptr) in.top->Finish();
}

#ifdef TSE_SCORE_AVX2

namespace {

constexpr size_t kLanes = 4;  // doubles per __m256d

// Finalize four (sum, count) partials. Bit-identity with
// AggState::Finalize: kAvg's `count > 0 ? sum / count : 0` becomes a
// blend of the divisor to 1.0 where count <= 0 (the division result for
// those lanes is discarded by the and-mask, and no 0/0 NaN is ever
// produced), then an and with the all-ones compare mask — +0.0 exactly
// where the scalar returns 0.0.
template <AggregateFunction F>
__attribute__((target("avx2"))) inline __m256d FinalizeLanes(__m256d sum,
                                                             __m256d count) {
  if (F == AggregateFunction::kSum) return sum;
  if (F == AggregateFunction::kCount) return count;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d positive = _mm256_cmp_pd(count, zero, _CMP_GT_OQ);
  const __m256d divisor = _mm256_blendv_pd(one, count, positive);
  return _mm256_and_pd(_mm256_div_pd(sum, divisor), positive);
}

// Four candidates of ComputeDiff's gamma, elementwise IEEE-identical to
// the scalar formulas in src/diff/diff_metrics.cc:
//  - abs is a sign-bit andnot (bit-exact, unlike any multiply trick);
//  - NO fused multiply-add anywhere (contraction would change results);
//  - per-lane guarded divisions blend the divisor to 1.0 where the guard
//    fires and blend the quotient away afterwards, so no lane divides by
//    a degenerate denominator;
//  - _mm256_min_pd(cap, x) has std::min(x, cap)'s operand semantics.
// The scalar-uniform guards (|delta| < eps; |overall_rate| < eps) are
// hoisted into ScoreAllAvx2Kernel and never reach this function.
template <DiffMetricKind K>
__attribute__((target("avx2"))) inline __m256d GammaLanes(
    __m256d f_test_wo, __m256d f_control_wo, __m256d delta,
    __m256d f_control, __m256d overall_rate) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d delta_wo = _mm256_sub_pd(f_test_wo, f_control_wo);
  const __m256d contribution = _mm256_sub_pd(delta, delta_wo);
  if (K == DiffMetricKind::kAbsoluteChange) {
    return _mm256_andnot_pd(sign_mask, contribution);
  }
  if (K == DiffMetricKind::kRelativeChange) {
    return _mm256_andnot_pd(sign_mask, _mm256_div_pd(contribution, delta));
  }
  // kRiskRatio.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d eps = _mm256_set1_pd(kDiffEps);
  const __m256d cap = _mm256_set1_pd(kRiskRatioCap);
  const __m256d slice_base = _mm256_sub_pd(f_control, f_control_wo);
  const __m256d base_small = _mm256_cmp_pd(
      _mm256_andnot_pd(sign_mask, slice_base), eps, _CMP_LT_OQ);
  const __m256d base_div = _mm256_blendv_pd(slice_base, one, base_small);
  const __m256d slice_rate = _mm256_blendv_pd(
      _mm256_div_pd(contribution, base_div), zero, base_small);
  const __m256d ratio = _mm256_div_pd(slice_rate, overall_rate);
  return _mm256_min_pd(cap, _mm256_andnot_pd(sign_mask, ratio));
}

// The mask of lanes e..e+3 (e a multiple of 4, so the four bits share a
// word): all-ones where the cell is active, zero where it is not.
__attribute__((target("avx2"))) inline __m256d ActiveLanes(
    const uint64_t* active, size_t e) {
  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const long long nibble =
      static_cast<long long>((active[e / 64] >> (e % 64)) & 0xF);
  const __m256i bits =
      _mm256_and_si256(_mm256_set1_epi64x(nibble), lane_bit);
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(bits, lane_bit));
}

template <AggregateFunction F, DiffMetricKind K>
__attribute__((target("avx2"))) void ScoreAllAvx2Kernel(
    const ScoreAllInputs& in, double* out) {
  const AggState ot = in.overall_test;
  const AggState oc = in.overall_control;
  const double delta_s = in.f_test - in.f_control;
  TopCells* const top = in.top;

  // The scalar-uniform guards: when they fire, the scalar path scores
  // EVERY candidate 0.0, so the whole sweep is a fill and selects nothing.
  double overall_rate_s = 0.0;
  bool all_zero = false;
  if (K == DiffMetricKind::kRelativeChange) {
    all_zero = std::abs(delta_s) < kDiffEps;
  } else if (K == DiffMetricKind::kRiskRatio) {
    overall_rate_s = std::abs(in.f_control) < kDiffEps
                         ? 0.0
                         : delta_s / in.f_control;
    all_zero = std::abs(overall_rate_s) < kDiffEps;
  }
  if (all_zero) {
    for (size_t e = 0; e < in.epsilon; ++e) out[e] = 0.0;
    if (top != nullptr) top->Finish();
    return;
  }

  const __m256d ot_sum = _mm256_set1_pd(ot.sum);
  const __m256d ot_count = _mm256_set1_pd(ot.count);
  const __m256d oc_sum = _mm256_set1_pd(oc.sum);
  const __m256d oc_count = _mm256_set1_pd(oc.count);
  const __m256d delta = _mm256_set1_pd(delta_s);
  const __m256d f_control = _mm256_set1_pd(in.f_control);
  const __m256d overall_rate = _mm256_set1_pd(overall_rate_s);
  __m256d floor = _mm256_set1_pd(top != nullptr ? top->floor() : 0.0);
  // Locals, so the stores below (which may alias anything) do not force
  // the fields to be reloaded every iteration.
  const double* const test_sums = in.test_sums;
  const double* const test_counts = in.test_counts;
  const double* const control_sums = in.control_sums;
  const double* const control_counts = in.control_counts;
  const uint64_t* const active = in.active;
  const size_t epsilon = in.epsilon;

  size_t e = 0;
  for (; e + kLanes <= epsilon; e += kLanes) {
    const __m256d test_wo = FinalizeLanes<F>(
        _mm256_sub_pd(ot_sum, _mm256_loadu_pd(test_sums + e)),
        _mm256_sub_pd(ot_count, _mm256_loadu_pd(test_counts + e)));
    const __m256d control_wo = FinalizeLanes<F>(
        _mm256_sub_pd(oc_sum, _mm256_loadu_pd(control_sums + e)),
        _mm256_sub_pd(oc_count, _mm256_loadu_pd(control_counts + e)));
    __m256d gamma =
        GammaLanes<K>(test_wo, control_wo, delta, f_control, overall_rate);
    // Masking is an and: an inactive lane becomes +0.0, an active one
    // keeps its bits.
    if (active != nullptr) {
      gamma = _mm256_and_pd(gamma, ActiveLanes(active, e));
    }
    _mm256_storeu_pd(out + e, gamma);
    if (top == nullptr) continue;
    // Four gammas against the running floor; only survivors are spilled,
    // each re-tested against the floor its predecessors may have raised,
    // so the offers are exactly the scalar sweep's.
    int survivors = _mm256_movemask_pd(_mm256_cmp_pd(gamma, floor,
                                                     _CMP_GT_OQ));
    if (survivors == 0) continue;
    do {
      const size_t lane = static_cast<size_t>(__builtin_ctz(
          static_cast<unsigned>(survivors)));
      if (out[e + lane] > top->floor()) {
        top->Push(out[e + lane], static_cast<ExplId>(e + lane));
      }
      survivors &= survivors - 1;
    } while (survivors != 0);
    floor = _mm256_set1_pd(top->floor());
  }
  // Odd tail: the scalar reference on the remaining < kLanes candidates.
  ScoreTail(in, F, K, e, out);
  if (top != nullptr) top->Finish();
}

using KernelFn = void (*)(const ScoreAllInputs&, double*);

template <AggregateFunction F>
KernelFn PickByMetric(DiffMetricKind kind) {
  switch (kind) {
    case DiffMetricKind::kAbsoluteChange:
      return &ScoreAllAvx2Kernel<F, DiffMetricKind::kAbsoluteChange>;
    case DiffMetricKind::kRelativeChange:
      return &ScoreAllAvx2Kernel<F, DiffMetricKind::kRelativeChange>;
    case DiffMetricKind::kRiskRatio:
      return &ScoreAllAvx2Kernel<F, DiffMetricKind::kRiskRatio>;
  }
  return nullptr;
}

KernelFn PickKernel(AggregateFunction f, DiffMetricKind kind) {
  switch (f) {
    case AggregateFunction::kSum:
      return PickByMetric<AggregateFunction::kSum>(kind);
    case AggregateFunction::kCount:
      return PickByMetric<AggregateFunction::kCount>(kind);
    case AggregateFunction::kAvg:
      return PickByMetric<AggregateFunction::kAvg>(kind);
  }
  return nullptr;
}

bool CpuHasAvx2() {
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  return has_avx2;
}

}  // namespace

bool ScoreAllAvx2(const ScoreAllInputs& in, double* out) {
  if (!CpuHasAvx2()) return false;
  KernelFn kernel = PickKernel(in.f, in.kind);
  if (kernel == nullptr) return false;
  kernel(in, out);
  return true;
}

#else  // !TSE_SCORE_AVX2

bool ScoreAllAvx2(const ScoreAllInputs& in, double* out) {
  (void)in;
  (void)out;
  return false;
}

#endif  // TSE_SCORE_AVX2

namespace {

// maybe_unused: the TSEXPLAIN_SIMD=OFF build compiles ScoreAllUsesSimd
// to a constant false and never calls this.
[[maybe_unused]] bool ForcedScalarByEnv() {
  static const bool forced = [] {
    const char* value = std::getenv("TSE_FORCE_SCALAR");
    return value != nullptr && value[0] == '1';
  }();
  return forced;
}

}  // namespace

bool ScoreAllUsesSimd() {
#ifdef TSE_SCORE_AVX2
  return !ForcedScalarByEnv() && CpuHasAvx2();
#else
  return false;
#endif
}

void ScoreAllAuto(const ScoreAllInputs& in, double* out) {
  if (ScoreAllUsesSimd() && ScoreAllAvx2(in, out)) return;
  ScoreAllScalar(in, out);
}

}  // namespace tsexplain
