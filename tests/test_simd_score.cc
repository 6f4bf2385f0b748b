// Bit-identity contract of the vectorized ScoreAll kernels
// (src/cube/score_kernels.h): for every AggregateFunction x DiffMetricKind
// pair, every stream length (including odd tails), and every guard-firing
// input, the AVX2 path must produce byte-identical doubles to the scalar
// reference — and the cube-level batch scorer must equal per-candidate
// Score() under any active mask. The fused mode (packed mask + first-round
// selection in the same pass) must equal plain scoring followed by masking
// and the two-pass selection it replaced. On machines without AVX2 (or
// builds with TSEXPLAIN_SIMD=OFF) the vector cases skip; the scalar/cube
// properties still run.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/cube/explanation_cube.h"
#include "src/cube/score_kernels.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"
#include "src/diff/explanation_registry.h"
#include "src/table/group_by.h"

namespace tsexplain {
namespace {

constexpr AggregateFunction kAggs[] = {AggregateFunction::kSum,
                                       AggregateFunction::kCount,
                                       AggregateFunction::kAvg};
constexpr DiffMetricKind kKinds[] = {DiffMetricKind::kAbsoluteChange,
                                     DiffMetricKind::kRelativeChange,
                                     DiffMetricKind::kRiskRatio};

// Deterministic value stream (no std::random: reproducible everywhere).
double Lcg(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  // Map to a signed range with a broad magnitude spread.
  return (static_cast<double>((state >> 11) % 2000001) - 1000000.0) / 997.0;
}

// Candidate streams exercising every kernel branch: generic values,
// complements whose count hits exactly zero (kAvg finalize guard),
// slices reproducing the whole delta (contribution 0), slice_base == 0
// (risk-ratio per-lane guard), and huge ratios (the cap).
struct Streams {
  std::vector<double> test_sums, test_counts, control_sums, control_counts;
};

Streams MakeStreams(size_t epsilon, const AggState& ot, const AggState& oc,
                    uint64_t seed) {
  Streams s;
  s.test_sums.resize(epsilon);
  s.test_counts.resize(epsilon);
  s.control_sums.resize(epsilon);
  s.control_counts.resize(epsilon);
  uint64_t state = seed;
  for (size_t e = 0; e < epsilon; ++e) {
    switch (e % 7) {
      case 0:  // slice == whole: the complement is the empty aggregate
        s.test_sums[e] = ot.sum;
        s.test_counts[e] = ot.count;
        s.control_sums[e] = oc.sum;
        s.control_counts[e] = oc.count;
        break;
      case 1:  // empty slice: contribution exactly 0
        s.test_sums[e] = 0.0;
        s.test_counts[e] = 0.0;
        s.control_sums[e] = 0.0;
        s.control_counts[e] = 0.0;
        break;
      case 2:  // identical control slice and complement: slice_base == 0
        s.test_sums[e] = Lcg(state);
        s.test_counts[e] = 3.0;
        s.control_sums[e] = oc.sum / 2.0;
        s.control_counts[e] = oc.count / 2.0;
        break;
      case 3:  // tiny denominators: ratios blow past the cap
        s.test_sums[e] = Lcg(state) * 1e6;
        s.test_counts[e] = 1.0;
        s.control_sums[e] = 1e-9;
        s.control_counts[e] = 1.0;
        break;
      default:
        s.test_sums[e] = Lcg(state);
        s.test_counts[e] = static_cast<double>((state >> 7) % 9);
        s.control_sums[e] = Lcg(state);
        s.control_counts[e] = static_cast<double>((state >> 9) % 9);
        break;
    }
  }
  return s;
}

ScoreAllInputs MakeInputs(AggregateFunction f, DiffMetricKind kind,
                          const AggState& ot, const AggState& oc,
                          const Streams& s) {
  ScoreAllInputs in;
  in.f = f;
  in.kind = kind;
  in.overall_test = ot;
  in.overall_control = oc;
  in.f_test = ot.Finalize(f);
  in.f_control = oc.Finalize(f);
  in.test_sums = s.test_sums.data();
  in.test_counts = s.test_counts.data();
  in.control_sums = s.control_sums.data();
  in.control_counts = s.control_counts.data();
  in.epsilon = s.test_sums.size();
  return in;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;
  // memcmp, not ==: NaN payloads and signed zeros must match too.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(SimdScore, Avx2MatchesScalarBitForBitEverywhere) {
  if (!ScoreAllAvx2(ScoreAllInputs{}, nullptr)) {
    GTEST_SKIP() << "AVX2 unavailable (CPU or build); scalar-only dispatch";
  }
  const AggState ot{812.5, 96.0};
  const AggState oc{-443.25, 80.0};
  // Lengths straddling the 4-lane width: pure tails, exact multiples, and
  // a large sweep.
  for (size_t epsilon : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 64u, 67u, 1001u}) {
    const Streams s = MakeStreams(epsilon, ot, oc, /*seed=*/epsilon * 31 + 7);
    for (AggregateFunction f : kAggs) {
      for (DiffMetricKind kind : kKinds) {
        const ScoreAllInputs in = MakeInputs(f, kind, ot, oc, s);
        std::vector<double> scalar(epsilon, -1.0);
        std::vector<double> vectorized(epsilon, -2.0);
        ScoreAllScalar(in, scalar.data());
        ASSERT_TRUE(ScoreAllAvx2(in, vectorized.data()));
        SCOPED_TRACE(testing::Message()
                     << "f=" << static_cast<int>(f)
                     << " kind=" << static_cast<int>(kind)
                     << " epsilon=" << epsilon);
        ExpectBitIdentical(scalar, vectorized);
      }
    }
  }
}

TEST(SimdScore, UniformGuardsZeroFillIdentically) {
  if (!ScoreAllAvx2(ScoreAllInputs{}, nullptr)) {
    GTEST_SKIP() << "AVX2 unavailable (CPU or build); scalar-only dispatch";
  }
  // delta == 0 (relative-change guard) and f_control == 0 (risk-ratio
  // overall_rate guard): the scalar path zeroes the whole sweep.
  const AggState equal{55.0, 11.0};
  const AggState zero_control{0.0, 0.0};
  const Streams s = MakeStreams(37, equal, equal, /*seed=*/99);
  for (AggregateFunction f : kAggs) {
    for (const AggState& oc : {equal, zero_control}) {
      for (DiffMetricKind kind :
           {DiffMetricKind::kRelativeChange, DiffMetricKind::kRiskRatio}) {
        const ScoreAllInputs in = MakeInputs(f, kind, equal, oc, s);
        std::vector<double> scalar(37), vectorized(37);
        ScoreAllScalar(in, scalar.data());
        ASSERT_TRUE(ScoreAllAvx2(in, vectorized.data()));
        ExpectBitIdentical(scalar, vectorized);
      }
    }
  }
}

TEST(SimdScore, AutoDispatchMatchesScalar) {
  // Whatever path ScoreAllAuto takes (AVX2, forced scalar, non-x86), the
  // output contract is the scalar reference, bit for bit.
  const AggState ot{321.0, 40.0};
  const AggState oc{123.0, 32.0};
  const Streams s = MakeStreams(129, ot, oc, /*seed=*/5);
  for (AggregateFunction f : kAggs) {
    for (DiffMetricKind kind : kKinds) {
      const ScoreAllInputs in = MakeInputs(f, kind, ot, oc, s);
      std::vector<double> scalar(129), automatic(129);
      ScoreAllScalar(in, scalar.data());
      ScoreAllAuto(in, automatic.data());
      ExpectBitIdentical(scalar, automatic);
    }
  }
}

// --- Fused score + select ----------------------------------------------------

// The selection guess-and-verify made before it was fused into the scoring
// pass: a second scan over the masked gammas buffering ids above the
// need-th best gamma kept so far, cut back with nth_element whenever 2 *
// need are buffered, then sorted.
std::vector<ExplId> TwoPassSelection(const std::vector<double>& gamma,
                                     const std::vector<bool>* selectable,
                                     size_t need) {
  auto by_gamma_desc = [&gamma](ExplId a, ExplId b) {
    const double ga = gamma[static_cast<size_t>(a)];
    const double gb = gamma[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return a < b;
  };
  std::vector<ExplId> top;
  auto keep_best = [&] {
    std::nth_element(top.begin(),
                     top.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                     top.end(), by_gamma_desc);
    top.resize(need);
    return gamma[static_cast<size_t>(top.back())];
  };
  double floor = 0.0;
  for (size_t e = 0; e < gamma.size(); ++e) {
    if (!(gamma[e] > floor)) continue;
    if (selectable != nullptr && !(*selectable)[e]) continue;
    top.push_back(static_cast<ExplId>(e));
    if (top.size() == 2 * need) floor = keep_best();
  }
  if (top.size() > need) keep_best();
  std::sort(top.begin(), top.end(), by_gamma_desc);
  return top;
}

// Streams whose gammas take a handful of values, so many cells tie exactly
// at the running floor: slice sums cycle through three magnitudes.
Streams MakeTiedStreams(size_t epsilon) {
  Streams s;
  for (size_t e = 0; e < epsilon; ++e) {
    s.test_sums.push_back(static_cast<double>(e * 7 % 3) * 4.0);
    s.test_counts.push_back(static_cast<double>(e % 2) + 1.0);
    s.control_sums.push_back(0.0);
    s.control_counts.push_back(1.0);
  }
  return s;
}

std::vector<size_t> FusedLengths() {
  std::vector<size_t> lengths;
  for (size_t e = 1; e <= 9; ++e) lengths.push_back(e);
  for (size_t k : {3u, 16u, 100u}) {
    for (size_t r = 1; r <= 3; ++r) lengths.push_back(4 * k + r);
  }
  return lengths;
}

// The kernel `kernel` in fused mode against ScoreAllScalar + mask + the
// two-pass selection, for every length, mask, guess and aggregate x metric.
void ExpectFusedMatchesTwoPass(bool (*kernel)(const ScoreAllInputs&,
                                              double*)) {
  const AggState ot{812.5, 96.0};
  const AggState oc{-443.25, 80.0};
  const int m = 3;
  for (size_t epsilon : FusedLengths()) {
    std::vector<bool> all(epsilon, true), none(epsilon, false),
        alternating(epsilon);
    for (size_t e = 0; e < epsilon; ++e) alternating[e] = e % 2 == 0;
    const std::vector<const std::vector<bool>*> masks = {nullptr, &all,
                                                         &none, &alternating};
    for (const bool tied : {false, true}) {
      const Streams s = tied ? MakeTiedStreams(epsilon)
                             : MakeStreams(epsilon, ot, oc, epsilon * 13 + 1);
      for (AggregateFunction f : kAggs) {
        for (DiffMetricKind kind : kKinds) {
          ScoreAllInputs plain = MakeInputs(f, kind, ot, oc, s);
          std::vector<double> reference(epsilon);
          ScoreAllScalar(plain, reference.data());
          for (const std::vector<bool>* mask : masks) {
            std::vector<double> masked = reference;
            std::vector<uint64_t> packed;
            if (mask != nullptr) {
              for (size_t e = 0; e < epsilon; ++e) {
                if (!(*mask)[e]) masked[e] = 0.0;
              }
              packed = PackActiveMask(*mask);
            }
            // 100: a selection past TopCells::kRankedLimit that still cuts
            // back on the longest streams.
            for (const int guess : {1, 2, 30, 100, INT_MAX}) {
              SCOPED_TRACE(testing::Message()
                           << "epsilon=" << epsilon << " tied=" << tied
                           << " f=" << static_cast<int>(f)
                           << " kind=" << static_cast<int>(kind)
                           << " mask=" << (mask == nullptr ? -1
                                           : mask == &all  ? 0
                                           : mask == &none ? 1
                                                           : 2)
                           << " guess=" << guess);
              const size_t need = FirstRoundNeed(epsilon, m, guess);
              const std::vector<ExplId> want =
                  TwoPassSelection(masked, mask, need);
              ScoreAllInputs fused = plain;
              fused.active = mask == nullptr ? nullptr : packed.data();
              TopCells top;
              top.Reset(need);
              fused.top = &top;
              std::vector<double> got(epsilon, -1.0);
              ASSERT_TRUE(kernel(fused, got.data()));
              ExpectBitIdentical(masked, got);
              ASSERT_EQ(top.size(), want.size());
              for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(top[i].id, want[i]) << "rank " << i;
                const double g = masked[static_cast<size_t>(want[i])];
                EXPECT_EQ(std::memcmp(&top[i].gamma, &g, sizeof(double)), 0)
                    << "rank " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdScore, FusedScalarMatchesTwoPassSelection) {
  ExpectFusedMatchesTwoPass(+[](const ScoreAllInputs& in, double* out) {
    ScoreAllScalar(in, out);
    return true;
  });
}

TEST(SimdScore, FusedAvx2MatchesTwoPassSelection) {
  if (!ScoreAllAvx2(ScoreAllInputs{}, nullptr)) {
    GTEST_SKIP() << "AVX2 unavailable (CPU or build); scalar-only dispatch";
  }
  ExpectFusedMatchesTwoPass(&ScoreAllAvx2);
}

// --- Cube level ------------------------------------------------------------

Table MakeTable() {
  Table table(Schema("date", {"state", "age"}, {"cases"}));
  for (const char* d : {"d0", "d1", "d2", "d3", "d4"}) table.AddTimeBucket(d);
  const double ny_young[] = {10, 20, 40, 80, 160};
  const double ny_old[] = {5, 5, 6, 7, 8};
  const double ca_young[] = {8, 7, 6, 5, 4};
  const double ca_old[] = {1, 2, 3, 4, 5};
  for (int t = 0; t < 5; ++t) {
    table.AppendRow(t, {"NY", "young"}, {ny_young[t]});
    table.AppendRow(t, {"NY", "old"}, {ny_old[t]});
    table.AppendRow(t, {"CA", "young"}, {ca_young[t]});
    table.AppendRow(t, {"CA", "old"}, {ca_old[t]});
  }
  return table;
}

TEST(SimdScore, CubeScoreAllEqualsPerCandidateScoreUnderMasks) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (AggregateFunction f : kAggs) {
    const ExplanationCube cube(t, reg, f, f == AggregateFunction::kCount
                                               ? -1
                                               : 0);
    const size_t epsilon = cube.num_explanations();
    // No mask, an alternating mask, and the support filter's mask.
    std::vector<bool> alternating(epsilon);
    for (size_t e = 0; e < epsilon; ++e) alternating[e] = (e % 3 != 1);
    const std::vector<bool> supported = ComputeSupportFilter(cube, 0.05);
    const std::vector<const std::vector<bool>*> masks = {
        nullptr, &alternating, &supported};
    for (DiffMetricKind kind : kKinds) {
      for (const std::vector<bool>* active : masks) {
        std::vector<double> batch(epsilon, -1.0);
        cube.ScoreAll(kind, /*t_control=*/0, /*t_test=*/4, active, &batch);
        for (size_t e = 0; e < epsilon; ++e) {
          if (active != nullptr && !(*active)[e]) {
            EXPECT_EQ(batch[e], 0.0);
            continue;
          }
          const DiffScore want =
              cube.Score(kind, static_cast<ExplId>(e), 0, 4);
          // Bit identity, not tolerance: ScoreAll documents itself as
          // exactly Score per candidate.
          EXPECT_EQ(std::memcmp(&batch[e], &want.gamma, sizeof(double)), 0)
              << "e=" << e << " kind=" << static_cast<int>(kind);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tsexplain
