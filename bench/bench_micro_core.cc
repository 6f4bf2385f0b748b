// Micro/ablation benchmarks (google-benchmark) for the design choices
// behind PAPER.md's modules and optimizations: Cascading Analysts cost vs epsilon, guess-and-verify
// initial guess, one cache-miss segment of a fast engine, variance-table
// granularity (vanilla vs sketch), diff-score lookups, matrix profile, and
// the K-segmentation DP.
//
// After the benchmark suite, main() runs the SIMD acceptance gate: on
// hosts where the AVX2 kernels dispatch, the vectorized ScoreAll sweep
// must be bit-identical to the scalar reference AND at least 1.5x faster,
// or the process exits non-zero (docs/PERF.md "SIMD scoring"). Emits
//   micro.score_all.scalar   median scalar sweep wall clock
//   micro.score_all.simd     median AVX2 sweep wall clock
// as BENCH_RESULT lines for tools/run_benches.sh.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "src/baselines/matrix_profile.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/cube/score_kernels.h"
#include "src/cube/support_filter.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/synthetic.h"
#include "src/diff/guess_verify.h"
#include "src/seg/kseg_dp.h"
#include "src/seg/segment_explainer.h"
#include "src/seg/sketch.h"

namespace tsexplain {
namespace {

// Fixture data for CA benchmarks: a two-attribute lattice with the given
// per-attribute cardinality.
struct CaFixture {
  std::unique_ptr<Table> table;
  ExplanationRegistry registry;
  std::vector<double> gamma;

  explicit CaFixture(int cardinality) {
    table = std::make_unique<Table>(Schema("t", {"A", "B"}, {"m"}));
    table->AddTimeBucket("0");
    for (int a = 0; a < cardinality; ++a) {
      for (int b = 0; b < cardinality; ++b) {
        table->AppendRow(0,
                         {"a" + std::to_string(a), "b" + std::to_string(b)},
                         {1.0});
      }
    }
    registry = ExplanationRegistry::Build(*table, {0, 1}, 2);
    Rng rng(7);
    gamma.resize(registry.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 100.0);
  }
};

void BM_CascadingAnalysts(benchmark::State& state) {
  CaFixture fixture(static_cast<int>(state.range(0)));
  CascadingAnalysts solver(fixture.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.TopM(fixture.gamma, 3));
  }
  state.counters["epsilon"] =
      static_cast<double>(fixture.registry.num_explanations());
}
BENCHMARK(BM_CascadingAnalysts)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_GuessVerify(benchmark::State& state) {
  CaFixture fixture(40);  // epsilon = 40 + 40 + 1600
  CascadingAnalysts solver(fixture.registry);
  const int initial_guess = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GuessVerifyTopM(solver, fixture.gamma, 3, nullptr, initial_guess));
  }
}
BENCHMARK(BM_GuessVerify)->Arg(5)->Arg(30)->Arg(120);

void BM_PlainCaSameInstance(benchmark::State& state) {
  CaFixture fixture(40);
  CascadingAnalysts solver(fixture.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.TopM(fixture.gamma, 3));
  }
}
BENCHMARK(BM_PlainCaSameInstance);

// Variance-table construction: the module (c) bottleneck, vanilla vs the
// sketched candidate set.
struct SegFixture {
  SyntheticDataset ds;
  ExplanationRegistry registry;
  std::unique_ptr<ExplanationCube> cube;
  std::unique_ptr<SegmentExplainer> explainer;

  explicit SegFixture(int n) {
    SyntheticConfig config;
    config.length = n;
    config.snr_db = 35.0;
    config.seed = 42;
    config.num_interior_cuts = 4;
    ds = GenerateSynthetic(config);
    registry = ExplanationRegistry::Build(*ds.table, {0}, 1);
    cube = std::make_unique<ExplanationCube>(*ds.table, registry,
                                             AggregateFunction::kSum, 0);
    SegmentExplainer::Options options;
    options.m = 3;
    explainer = std::make_unique<SegmentExplainer>(*cube, registry, options);
  }
};

void BM_VarianceTableVanilla(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  std::vector<int> positions(static_cast<size_t>(fixture.explainer->n()));
  std::iota(positions.begin(), positions.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VarianceTable::Compute(calc, positions));
  }
}
BENCHMARK(BM_VarianceTableVanilla)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_VarianceTableSketched(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  const SketchResult sketch = SelectSketch(calc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VarianceTable::Compute(calc, sketch.positions));
  }
  state.counters["sketch_size"] =
      static_cast<double>(sketch.positions.size());
}
BENCHMARK(BM_VarianceTableSketched)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_KsegDp(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  std::vector<int> positions(static_cast<size_t>(fixture.explainer->n()));
  std::iota(positions.begin(), positions.end(), 0);
  const VarianceTable table = VarianceTable::Compute(calc, positions);
  for (auto _ : state) {
    KSegmentationDp dp(table, 20);
    benchmark::DoNotOptimize(dp.TotalVariance(20));
  }
}
BENCHMARK(BM_KsegDp)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_CubeScoreLookup(benchmark::State& state) {
  SegFixture fixture(200);
  size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.cube->Score(
        DiffMetricKind::kAbsoluteChange, 0, t % 100, 100 + t % 99));
    ++t;
  }
}
BENCHMARK(BM_CubeScoreLookup);

// Module (a) for one segment on the Liquor cube (the large-epsilon
// workload): the legacy per-candidate Score loop vs the batched SoA sweep
// (ExplanationCube::ScoreAll). Same arithmetic, same results; the batch
// hoists the overall finalization and walks contiguous memory.
struct LiquorCubeFixture {
  std::unique_ptr<Table> table;
  ExplanationRegistry registry;
  std::unique_ptr<ExplanationCube> cube;

  LiquorCubeFixture() : table(MakeLiquorTable()) {
    registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
    cube = std::make_unique<ExplanationCube>(*table, registry,
                                             AggregateFunction::kSum, 0);
  }
};

void BM_ScorePerCandidate(benchmark::State& state) {
  LiquorCubeFixture fixture;
  const size_t epsilon = fixture.registry.num_explanations();
  const size_t n = fixture.cube->n();
  std::vector<double> gammas(epsilon);
  size_t t = 0;
  for (auto _ : state) {
    const size_t a = t % (n / 2);
    const size_t b = n / 2 + t % (n / 2);
    for (size_t e = 0; e < epsilon; ++e) {
      gammas[e] = fixture.cube
                      ->Score(DiffMetricKind::kAbsoluteChange,
                              static_cast<ExplId>(e), a, b)
                      .gamma;
    }
    benchmark::DoNotOptimize(gammas.data());
    ++t;
  }
  state.counters["epsilon"] = static_cast<double>(epsilon);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(epsilon));
}
BENCHMARK(BM_ScorePerCandidate)->Unit(benchmark::kMicrosecond);

void BM_ScoreAllBatch(benchmark::State& state) {
  LiquorCubeFixture fixture;
  const size_t epsilon = fixture.registry.num_explanations();
  const size_t n = fixture.cube->n();
  std::vector<double> gammas(epsilon);
  size_t t = 0;
  for (auto _ : state) {
    fixture.cube->ScoreAll(DiffMetricKind::kAbsoluteChange, t % (n / 2),
                           n / 2 + t % (n / 2), nullptr, &gammas);
    benchmark::DoNotOptimize(gammas.data());
    ++t;
  }
  state.counters["epsilon"] = static_cast<double>(epsilon);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(epsilon));
}
BENCHMARK(BM_ScoreAllBatch)->Unit(benchmark::kMicrosecond);

// Guess-and-verify (O1) on real Liquor scores: 4 attributes, order 3, the
// support filter on, m = 3 -- one fast-engine CA call. Cycles over the
// precomputed gammas of every unit segment.
void BM_GuessVerifyLiquor(benchmark::State& state) {
  LiquorCubeFixture fixture;
  const std::vector<bool> active = ComputeSupportFilter(*fixture.cube);
  const size_t n = fixture.cube->n();
  std::vector<std::vector<double>> gammas(
      n - 1, std::vector<double>(fixture.registry.num_explanations()));
  for (size_t t = 0; t + 1 < n; ++t) {
    fixture.cube->ScoreAll(DiffMetricKind::kAbsoluteChange, t, t + 1,
                           &active, &gammas[t]);
  }
  CascadingAnalysts solver(fixture.registry);
  size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GuessVerifyTopM(solver, gammas[t % gammas.size()], 3, &active));
    ++t;
  }
  state.counters["epsilon"] =
      static_cast<double>(fixture.registry.num_explanations());
}
BENCHMARK(BM_GuessVerifyLiquor)->Unit(benchmark::kMicrosecond);

// One cache-miss segment of a fast engine on Liquor (support filter, O1,
// m = 3), as SegmentExplainer::TopFor computes it: the gamma fill,
// guess-and-verify's selection and the restricted solve. Arg = explain-by
// width: 2 (BV, CN at order 2, epsilon 559) or 4 (all four at order 3).
// Each iteration explains the same 256 seeded segments, then clears the
// cache untimed; `segment` is the time per segment.
void BM_SegmentTopLiquor(benchmark::State& state) {
  static const std::unique_ptr<Table> table = MakeLiquorTable();
  const bool wide = state.range(0) == 4;
  const std::vector<AttrId> explain_by =
      wide ? std::vector<AttrId>{0, 1, 2, 3} : std::vector<AttrId>{0, 2};
  const ExplanationRegistry registry =
      ExplanationRegistry::Build(*table, explain_by, wide ? 3 : 2);
  const ExplanationCube cube(*table, registry, AggregateFunction::kSum, 0);
  const std::vector<bool> active = ComputeSupportFilter(cube);
  SegmentExplainer::Options options;
  options.use_guess_verify = true;
  options.active = &active;
  SegmentExplainer explainer(cube, registry, options);
  constexpr int kSegments = 256;
  std::vector<std::pair<int, int>> segments;
  Rng rng(256);
  while (segments.size() < kSegments) {
    const int a = static_cast<int>(rng.UniformInt(0, explainer.n() - 2));
    const int b = static_cast<int>(rng.UniformInt(a + 1, explainer.n() - 1));
    if (std::find(segments.begin(), segments.end(), std::make_pair(a, b)) ==
        segments.end()) {
      segments.emplace_back(a, b);
    }
  }
  for (auto _ : state) {
    for (const auto& [a, b] : segments) {
      benchmark::DoNotOptimize(explainer.TopFor(a, b));
    }
    state.PauseTiming();
    explainer.ClearCache();
    state.ResumeTiming();
  }
  state.counters["epsilon"] = static_cast<double>(registry.num_explanations());
  state.counters["segment"] = benchmark::Counter(
      kSegments, benchmark::Counter::kIsIterationInvariantRate |
                     benchmark::Counter::kInvert);
}
BENCHMARK(BM_SegmentTopLiquor)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Raw kernel-level sweep (no cube, no mask): the four SoA candidate
// streams fed straight into the scoring kernels, the unit the SIMD gate
// below times. kAvg + kRelativeChange is the heaviest lane (two guarded
// divisions + the count>0 finalize blend).
struct KernelFixture {
  std::vector<double> test_sums, test_counts, control_sums, control_counts;
  ScoreAllInputs in;

  explicit KernelFixture(size_t epsilon) {
    test_sums.resize(epsilon);
    test_counts.resize(epsilon);
    control_sums.resize(epsilon);
    control_counts.resize(epsilon);
    Rng rng(11);
    for (size_t e = 0; e < epsilon; ++e) {
      test_sums[e] = rng.Uniform(-100.0, 100.0);
      test_counts[e] = static_cast<double>(static_cast<int>(
          rng.Uniform(0.0, 9.0)));
      control_sums[e] = rng.Uniform(-100.0, 100.0);
      control_counts[e] = static_cast<double>(static_cast<int>(
          rng.Uniform(0.0, 9.0)));
    }
    in.f = AggregateFunction::kAvg;
    in.kind = DiffMetricKind::kRelativeChange;
    in.overall_test = AggState{5000.0, 1000.0};
    in.overall_control = AggState{4000.0, 900.0};
    in.f_test = in.overall_test.Finalize(in.f);
    in.f_control = in.overall_control.Finalize(in.f);
    in.test_sums = test_sums.data();
    in.test_counts = test_counts.data();
    in.control_sums = control_sums.data();
    in.control_counts = control_counts.data();
    in.epsilon = epsilon;
  }
};

void BM_ScoreAllScalarKernel(benchmark::State& state) {
  KernelFixture fixture(static_cast<size_t>(state.range(0)));
  std::vector<double> out(fixture.in.epsilon);
  for (auto _ : state) {
    ScoreAllScalar(fixture.in, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreAllScalarKernel)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreAllSimd(benchmark::State& state) {
  KernelFixture fixture(static_cast<size_t>(state.range(0)));
  std::vector<double> out(fixture.in.epsilon);
  if (!ScoreAllAvx2(fixture.in, out.data())) {
    state.SkipWithError("AVX2 unavailable (CPU or TSEXPLAIN_SIMD=OFF)");
    return;
  }
  for (auto _ : state) {
    ScoreAllAvx2(fixture.in, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreAllSimd)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

// Cube construction, serial vs the time-partitioned parallel scan (arg =
// thread count). Results are bit-identical at any thread count.
void BM_CubeBuildThreads(benchmark::State& state) {
  const auto table = MakeLiquorTable();
  const auto registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExplanationCube cube(*table, registry, AggregateFunction::kSum, 0,
                         threads);
    benchmark::DoNotOptimize(&cube);
  }
  state.counters["rows"] = static_cast<double>(table->num_rows());
}
BENCHMARK(BM_CubeBuildThreads)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MatrixProfile(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  double level = 0.0;
  for (auto& v : values) {
    level += rng.Gaussian(0.0, 1.0);
    v = level;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMatrixProfile(values, 12));
  }
}
BENCHMARK(BM_MatrixProfile)->Arg(345)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Registry + cube as an engine builds them: one row grouping serves both.
void BM_LiquorCubeBuild(benchmark::State& state) {
  const auto table = MakeLiquorTable();
  std::vector<AttrId> attrs{0, 1, 2, 3};
  for (auto _ : state) {
    TupleCells tuple_cells;
    const auto registry =
        ExplanationRegistry::Build(*table, attrs, 3, &tuple_cells);
    benchmark::DoNotOptimize(ExplanationCube(
        *table, registry, tuple_cells, AggregateFunction::kSum, 0));
  }
}
BENCHMARK(BM_LiquorCubeBuild)->Unit(benchmark::kMillisecond);

// SIMD acceptance gate (ISSUE 8): where AVX2 dispatches, the vectorized
// sweep must reproduce the scalar reference bit for bit and beat it by at
// least 1.5x. Runs after the benchmark suite so a regression fails the
// process, not just a number in a log. Returns 0 (with a note) when the
// host or build has no AVX2 — the scalar-dispatch CI job must still pass.
int RunSimdGate() {
  constexpr size_t kEpsilon = 1 << 16;
  constexpr int kReps = 41;
  KernelFixture fixture(kEpsilon);
  std::vector<double> scalar(kEpsilon), vectorized(kEpsilon);
  if (!ScoreAllAvx2(fixture.in, vectorized.data())) {
    std::printf("simd gate: skipped (AVX2 unavailable: CPU, non-x86, or "
                "TSEXPLAIN_SIMD=OFF)\n");
    return 0;
  }

  // Bit identity first, across every aggregate x metric pair — a fast
  // wrong kernel must not pass the speed gate.
  for (AggregateFunction f : {AggregateFunction::kSum,
                              AggregateFunction::kCount,
                              AggregateFunction::kAvg}) {
    for (DiffMetricKind kind : {DiffMetricKind::kAbsoluteChange,
                                DiffMetricKind::kRelativeChange,
                                DiffMetricKind::kRiskRatio}) {
      ScoreAllInputs in = fixture.in;
      in.f = f;
      in.kind = kind;
      in.f_test = in.overall_test.Finalize(f);
      in.f_control = in.overall_control.Finalize(f);
      ScoreAllScalar(in, scalar.data());
      ScoreAllAvx2(in, vectorized.data());
      if (std::memcmp(scalar.data(), vectorized.data(),
                      kEpsilon * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "FAIL: AVX2 sweep is not bit-identical to scalar "
                     "(f=%d kind=%d)\n",
                     static_cast<int>(f), static_cast<int>(kind));
        return 1;
      }
    }
  }

  auto median_ms = [&](void (*sweep)(const ScoreAllInputs&, double*),
                       double* out) {
    std::vector<double> samples;
    samples.reserve(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      sweep(fixture.in, out);
      samples.push_back(timer.ElapsedMs());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  const double scalar_ms = median_ms(
      +[](const ScoreAllInputs& in, double* out) { ScoreAllScalar(in, out); },
      scalar.data());
  const double simd_ms = median_ms(
      +[](const ScoreAllInputs& in, double* out) { ScoreAllAvx2(in, out); },
      vectorized.data());
  const double speedup = scalar_ms / simd_ms;
  std::printf("simd gate: scalar %s, avx2 %s, speedup %.2fx "
              "(epsilon=%zu, bit-identical)\n",
              bench::FormatMs(scalar_ms).c_str(),
              bench::FormatMs(simd_ms).c_str(), speedup, kEpsilon);
  bench::EmitResult("micro.score_all.scalar", scalar_ms);
  bench::EmitResult("micro.score_all.simd", simd_ms);
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: SIMD speedup %.2fx is below the 1.5x bar\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tsexplain

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return tsexplain::RunSimdGate();
}
