// Tests for the shared module (a) precomputation (src/cube/precomputation.h):
// a projected cube is bit-identical to a fresh one, an engine built on a
// projection answers exactly like a standalone one, shared partials are
// never written, and the dataset registry shares one precomputation per
// (registration, measure), falls back to the requested set past the
// table's budget and frees it with the registration.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/cube/precomputation.h"
#include "src/pipeline/streaming.h"
#include "src/pipeline/tsexplain.h"
#include "src/service/dataset_registry.h"

namespace tsexplain {
namespace {

// Four dimensions whose name order (bank, city, item, zone) is not their
// AttrId order; city determines zone, so dedupe has equal slices to merge.
// Enough rows for the cube's parallel scan.
std::shared_ptr<const Table> MakeTable() {
  Rng rng(18);
  auto table = std::make_shared<Table>(
      Schema("t", {"zone", "city", "bank", "item"}, {"amount", "units"}));
  for (int t = 0; t < 24; ++t) table->AddTimeBucket("t" + std::to_string(t));
  for (int row = 0; row < 6000; ++row) {
    const int t = row % 24;
    const int64_t city = rng.UniformInt(0, 9);
    const int64_t item = rng.UniformInt(0, 5);
    // A trend that moves with time and item, so the explanations differ.
    const double amount = rng.Uniform(0.0, 10.0) +
                          (item == 2 ? 0.8 * t : 0.0) +
                          (city == 3 && t > 12 ? 15.0 : 0.0);
    table->AppendRow(t,
                     {"z" + std::to_string(city / 4),
                      "c" + std::to_string(city),
                      "b" + std::to_string(rng.UniformInt(0, 3)),
                      "i" + std::to_string(item)},
                     {amount, static_cast<double>(rng.UniformInt(1, 4))});
  }
  return table;
}

const std::vector<AttrId> kByName = {2, 1, 3, 0};  // bank, city, item, zone

std::vector<std::vector<AttrId>> Subsets() {
  std::vector<std::vector<AttrId>> out;
  for (uint32_t mask = 1; mask < 16; ++mask) {
    std::vector<AttrId> subset;
    for (AttrId a : kByName) {
      if (mask & (1u << a)) subset.push_back(a);
    }
    out.push_back(subset);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameCube(const ExplanationCube& a, const ExplanationCube& b,
                    const std::string& label) {
  ASSERT_EQ(a.n(), b.n()) << label;
  ASSERT_EQ(a.num_explanations(), b.num_explanations()) << label;
  for (size_t t = 0; t < a.n(); ++t) {
    ASSERT_TRUE(SameBits(a.Overall(t), b.Overall(t))) << label << " t " << t;
    for (ExplId e = 0; e < static_cast<ExplId>(a.num_explanations()); ++e) {
      ASSERT_TRUE(SameBits(a.SliceValue(e, t), b.SliceValue(e, t)))
          << label << " cell " << e << " t " << t;
    }
  }
}

std::string Label(const std::vector<AttrId>& explain_by, int order,
                  int threads) {
  std::string label = "order " + std::to_string(order) + " threads " +
                      std::to_string(threads) + " by";
  for (AttrId a : explain_by) label += " " + std::to_string(a);
  return label;
}

TEST(PrecomputationProjection, CubeIsBitIdenticalToFreshBuild) {
  const auto table = MakeTable();
  for (int threads : {1, 4}) {
    const Precomputation superset =
        Precomputation::Build(*table, kByName, 3, 0, threads);
    for (const auto& explain_by : Subsets()) {
      for (int order = 1; order <= 3; ++order) {
        const std::string label = Label(explain_by, order, threads);
        const Precomputation fresh =
            Precomputation::Build(*table, explain_by, order, 0, threads);
        const Precomputation projected = superset.Project(explain_by, order);
        EXPECT_EQ(projected.tuples, fresh.tuples) << label;
        for (AggregateFunction f :
             {AggregateFunction::kSum, AggregateFunction::kAvg}) {
          ExplanationCube want(fresh.partials, f);
          ExplanationCube got(projected.partials, f);
          ExpectSameCube(want, got, label);
          // Smoothing after projection: same arithmetic per slice.
          want.SmoothInPlace(3);
          got.SmoothInPlace(3);
          ExpectSameCube(want, got, label + " smoothed");
        }
      }
    }
  }
}

TEST(PrecomputationProjection, CoversAndSharing) {
  const auto table = MakeTable();
  const Precomputation superset =
      Precomputation::Build(*table, kByName, 3, 0, 1);
  EXPECT_TRUE(superset.Covers({1, 0}, 3));
  EXPECT_TRUE(superset.Covers({0, 1, 2, 3}, 3));  // another order: project
  EXPECT_TRUE(superset.Covers({1, 0}, 7));        // only two attributes
  EXPECT_FALSE(superset.Covers(kByName, 4));      // 4-attribute cells
  const Precomputation narrow = Precomputation::Build(*table, {1, 0}, 2, 0, 1);
  EXPECT_FALSE(narrow.Covers({1, 3}, 2));

  // The same set at the same effective order shares everything.
  const Precomputation same = superset.Project(kByName, 3);
  EXPECT_EQ(same.registry, superset.registry);
  EXPECT_EQ(same.partials, superset.partials);
  const Precomputation pair = narrow.Project({1, 0}, 5);
  EXPECT_EQ(pair.registry, narrow.registry);
  // A projection can be projected again.
  const Precomputation city = superset.Project({1, 0}, 2).Project({1}, 1);
  const Precomputation fresh = Precomputation::Build(*table, {1}, 1, 0, 1);
  ExpectSameCube(ExplanationCube(fresh.partials, AggregateFunction::kSum),
                 ExplanationCube(city.partials, AggregateFunction::kSum),
                 "twice projected");

  // Within the table's budget the superset spans every dimension, in name
  // order.
  const Precomputation all = Precomputation::BuildSuperset(*table, 3, 0, 1);
  ASSERT_NE(all.registry, nullptr);
  EXPECT_EQ(all.registry->explain_by(), kByName);
}

TEST(PrecomputationProjection, SharedPartialsAreNeverWritten) {
  const auto table = MakeTable();
  const Precomputation superset =
      Precomputation::Build(*table, kByName, 3, 0, 1);
  const CubePartials before = *superset.partials;

  ExplanationCube smoothed(superset.partials, AggregateFunction::kSum);
  smoothed.SmoothInPlace(4);
  EXPECT_NE(smoothed.partials(), superset.partials);

  ExplanationCube appended(superset.partials, AggregateFunction::kSum);
  const std::vector<AggState> slices(appended.num_explanations(),
                                     AggState{1.0, 1.0});
  appended.AppendBucket(AggState{4.0, 4.0}, slices, "extra");
  EXPECT_NE(appended.partials(), superset.partials);
  EXPECT_EQ(appended.n(), before.overall.size() + 1);

  EXPECT_EQ(superset.partials->slice_sums, before.slice_sums);
  EXPECT_EQ(superset.partials->slice_counts, before.slice_counts);
  EXPECT_EQ(superset.partials->time_labels, before.time_labels);

  // A cube that owns its partials alone appends in place.
  const CubePartials* owned = appended.partials().get();
  appended.AppendBucket(AggState{4.0, 4.0}, slices, "extra2");
  EXPECT_EQ(appended.partials().get(), owned);
}

void ExpectSameResult(const TSExplainResult& a, const TSExplainResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.chosen_k, b.chosen_k) << label;
  EXPECT_EQ(a.segmentation.cuts, b.segmentation.cuts) << label;
  EXPECT_EQ(a.epsilon, b.epsilon) << label;
  EXPECT_EQ(a.filtered_epsilon, b.filtered_epsilon) << label;
  ASSERT_EQ(a.k_variance_curve.size(), b.k_variance_curve.size()) << label;
  for (size_t k = 0; k < a.k_variance_curve.size(); ++k) {
    EXPECT_TRUE(SameBits(a.k_variance_curve[k], b.k_variance_curve[k]))
        << label << " K " << k + 1;
  }
  ASSERT_EQ(a.segments.size(), b.segments.size()) << label;
  for (size_t s = 0; s < a.segments.size(); ++s) {
    ASSERT_EQ(a.segments[s].top.size(), b.segments[s].top.size()) << label;
    for (size_t r = 0; r < a.segments[s].top.size(); ++r) {
      const ExplanationItem& x = a.segments[s].top[r];
      const ExplanationItem& y = b.segments[s].top[r];
      EXPECT_EQ(x.id, y.id) << label;
      EXPECT_EQ(x.description, y.description) << label;
      EXPECT_TRUE(SameBits(x.gamma, y.gamma)) << label;
      EXPECT_EQ(x.tau, y.tau) << label;
    }
  }
}

std::vector<TSExplainConfig> EngineConfigs() {
  std::vector<TSExplainConfig> configs;
  const std::vector<std::vector<std::string>> sets = {
      {"bank", "city"}, {"city", "zone"}, {"item"},
      {"bank", "city", "item"}, {"bank", "city", "item", "zone"}};
  for (size_t i = 0; i < sets.size(); ++i) {
    TSExplainConfig config;
    config.measure = "amount";
    config.explain_by_names = sets[i];
    config.aggregate =
        i % 2 == 0 ? AggregateFunction::kSum : AggregateFunction::kAvg;
    config.diff_metric = i % 2 == 0 ? DiffMetricKind::kAbsoluteChange
                                    : DiffMetricKind::kRelativeChange;
    config.use_guess_verify = i == 1;
    config.use_filter = i == 3;
    config.max_k = 6;
    configs.push_back(config);
  }
  configs[1].max_order = 2;
  configs[2].smooth_window = 3;
  configs[4].exclude = {"city=c3"};
  return configs;
}

TEST(PrecomputationEngine, ProjectedEngineAnswersLikeStandalone) {
  const auto table = MakeTable();
  for (int threads : {1, 4}) {
    const Precomputation superset =
        Precomputation::Build(*table, kByName, 3, 0, threads);
    for (TSExplainConfig config : EngineConfigs()) {
      config.threads = threads;
      TSExplain standalone(*table, config);
      TSExplain projected(*table, config, &superset);
      ExpectSameResult(standalone.Run(), projected.Run(),
                       config.explain_by_names[0] + " x" +
                           std::to_string(config.explain_by_names.size()));
    }
  }
}

uint64_t CounterValue(const std::string& name) {
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  const uint64_t* value = snapshot.FindCounter(name);
  return value == nullptr ? 0 : *value;
}

// Two dimensions of four values each, one row per time bucket cycling
// through the 16 tuples: few enumerated cells per row, but every cell holds
// a partial at each of the many buckets.
std::shared_ptr<const Table> MakeSparseTable() {
  auto table = std::make_shared<Table>(Schema("t", {"b", "a"}, {"v"}));
  for (int t = 0; t < 200; ++t) {
    table->AddTimeBucket("t" + std::to_string(t));
    table->AppendRow(t,
                     {"b" + std::to_string(t % 4),
                      "a" + std::to_string(t / 4 % 4)},
                     {static_cast<double>(t % 7) + (t > 120 ? 5.0 : 0.0)});
  }
  return table;
}

TEST(PrecomputationBudget, ManyBucketsFallBackToTheRequestedSet) {
  // 16 tuples x 3 subsets = 48 enumerated cells, within the 200 rows; but
  // 24 cells x 200 buckets x 16 B = 76,800 B of partials, past twice the
  // 200 x 20 B of columns.
  const auto table = MakeSparseTable();
  EXPECT_EQ(Precomputation::BuildSuperset(*table, 2, 0, 1).registry,
            nullptr);
  EXPECT_EQ(Precomputation::BuildSuperset(*table, 2, 0, 1).partials,
            nullptr);

  // The service builds the first engine's own set instead; a set it does
  // not cover gets a row scan of its own, one it does is shared.
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  TSExplainConfig by_a;
  by_a.measure = "v";
  by_a.explain_by_names = {"a"};
  by_a.max_order = 2;
  by_a.max_k = 6;
  TSExplainConfig by_b = by_a;
  by_b.explain_by_names = {"b"};
  TSExplainConfig by_a_avg = by_a;
  by_a_avg.aggregate = AggregateFunction::kAvg;
  const uint64_t builds = CounterValue("engine.precomputation_builds");
  const uint64_t projections = CounterValue("engine.projections");
  std::vector<EngineHandle> handles;
  for (const TSExplainConfig* config : {&by_a, &by_b, &by_a_avg}) {
    handles.push_back(registry.GetOrBuildEngine(
        "ds", "key" + std::to_string(handles.size()), *config, table.get(),
        &error));
    ASSERT_TRUE(handles.back().ok()) << error;
    EXPECT_EQ(handles.back().engine->registry().explain_by(),
              ResolveExplainBy(*table, config->explain_by_names));
  }
  EXPECT_EQ(CounterValue("engine.precomputation_builds") - builds, 2u);
  EXPECT_EQ(CounterValue("engine.projections") - projections, 0u);
  EXPECT_EQ(handles[2].engine->cube().partials(),
            handles[0].engine->cube().partials());
  ExpectSameResult(TSExplain(*table, by_a).Run(), handles[0].engine->Run(),
                   "a");
  ExpectSameResult(TSExplain(*table, by_b).Run(), handles[1].engine->Run(),
                   "b");
  ExpectSameResult(TSExplain(*table, by_a_avg).Run(),
                   handles[2].engine->Run(), "a avg");
}

TEST(PrecomputationService, EnginesOnSubsetsMatchStandaloneRuns) {
  const auto table = MakeTable();
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  const uint64_t builds = CounterValue("engine.precomputation_builds");
  const uint64_t projections = CounterValue("engine.projections");
  const std::vector<TSExplainConfig> configs = EngineConfigs();
  for (size_t i = 0; i < configs.size(); ++i) {
    EngineHandle handle = registry.GetOrBuildEngine(
        "ds", "key" + std::to_string(i), configs[i], table.get(), &error);
    ASSERT_TRUE(handle.ok()) << error;
    TSExplain standalone(*table, configs[i]);
    ExpectSameResult(standalone.Run(), handle.engine->Run(),
                     "engine " + std::to_string(i));
  }
  // One row scan for the registration's measure (the standalone engines
  // above add one each); every engine but the all-dimension one projects.
  EXPECT_EQ(CounterValue("engine.precomputation_builds") - builds,
            1 + configs.size());
  EXPECT_EQ(CounterValue("engine.projections") - projections,
            configs.size() - 1);

  // A second measure gets its own precomputation.
  TSExplainConfig units = configs[0];
  units.measure = "units";
  EngineHandle handle =
      registry.GetOrBuildEngine("ds", "units", units, table.get(), &error);
  ASSERT_TRUE(handle.ok()) << error;
  EXPECT_EQ(CounterValue("engine.precomputation_builds") - builds,
            2 + configs.size());
  ExpectSameResult(TSExplain(*table, units).Run(), handle.engine->Run(),
                   "units");
}

// Engines built and run from several threads at once share one resident
// precomputation (the all-dimension engines share its partials outright)
// and still answer like standalone runs.
TEST(PrecomputationService, ConcurrentEnginesShareOnePrecomputation) {
  const auto table = MakeTable();
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  std::vector<TSExplainConfig> configs = EngineConfigs();
  TSExplainConfig avg = configs.back();
  avg.aggregate = AggregateFunction::kAvg;
  configs.push_back(avg);
  // Whichever engine locks first builds the precomputation at its order;
  // one order for all keeps every engine covered.
  for (TSExplainConfig& config : configs) config.max_order = 3;
  std::vector<TSExplainResult> want;
  for (const TSExplainConfig& config : configs) {
    want.push_back(TSExplain(*table, config).Run());
  }
  const uint64_t builds = CounterValue("engine.precomputation_builds");
  std::vector<TSExplainResult> got(configs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back([&, i] {
      std::string thread_error;
      EngineHandle handle = registry.GetOrBuildEngine(
          "ds", "key" + std::to_string(i), configs[i], table.get(),
          &thread_error);
      MutexLock lock(*handle.mu);
      got[i] = handle.engine->Run();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(CounterValue("engine.precomputation_builds") - builds, 1u);
  for (size_t i = 0; i < configs.size(); ++i) {
    ExpectSameResult(want[i], got[i], "concurrent " + std::to_string(i));
  }
}

TEST(PrecomputationService, DropFreesThePrecomputation) {
  const auto table = MakeTable();
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  TSExplainConfig all;
  all.measure = "amount";
  all.explain_by_names = {"bank", "city", "item", "zone"};
  TSExplainConfig pair = all;
  pair.explain_by_names = {"bank", "item"};
  EngineHandle whole =
      registry.GetOrBuildEngine("ds", "all", all, table.get(), &error);
  EngineHandle part =
      registry.GetOrBuildEngine("ds", "pair", pair, table.get(), &error);
  ASSERT_TRUE(whole.ok() && part.ok()) << error;
  // The all-dimension engine is a view of the resident precomputation.
  const std::weak_ptr<const CubePartials> partials =
      whole.engine->cube().partials();
  const std::weak_ptr<TSExplain> projected = part.engine;
  EXPECT_GE(partials.use_count(), 2);

  ASSERT_TRUE(registry.Drop("ds"));
  EXPECT_FALSE(partials.expired());  // the lease still holds it
  whole = EngineHandle{};
  EXPECT_TRUE(partials.expired());
  EXPECT_FALSE(projected.expired());
  part = EngineHandle{};
  EXPECT_TRUE(projected.expired());
}

// The three aggregate/diff variants of one explain-by pair (as in the
// cold_liquor key set) share one projection, answer like standalone runs,
// and free it with the registration and the last lease.
TEST(PrecomputationService, VariantsOfOneSetShareOneProjection) {
  const auto table = MakeTable();
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  TSExplainConfig sum_abs;
  sum_abs.measure = "amount";
  sum_abs.explain_by_names = {"bank", "item"};
  sum_abs.max_k = 6;
  sum_abs.use_filter = sum_abs.use_guess_verify = true;
  TSExplainConfig avg_rel = sum_abs;
  avg_rel.aggregate = AggregateFunction::kAvg;
  avg_rel.diff_metric = DiffMetricKind::kRelativeChange;
  TSExplainConfig sum_rr = sum_abs;
  sum_rr.diff_metric = DiffMetricKind::kRiskRatio;
  const std::vector<TSExplainConfig> variants = {sum_abs, avg_rel, sum_rr};

  const uint64_t projections = CounterValue("engine.projections");
  std::vector<EngineHandle> handles;
  for (const TSExplainConfig& config : variants) {
    handles.push_back(registry.GetOrBuildEngine(
        "ds", "variant" + std::to_string(handles.size()), config,
        table.get(), &error));
    ASSERT_TRUE(handles.back().ok()) << error;
  }
  // The first engine builds the all-dimension superset and projects the
  // pair from it; the other two share that projection.
  EXPECT_EQ(CounterValue("engine.projections") - projections, 1u);
  const std::shared_ptr<const CubePartials>& partials =
      handles[0].engine->cube().partials();
  EXPECT_EQ(handles[1].engine->cube().partials(), partials);
  EXPECT_EQ(handles[2].engine->cube().partials(), partials);
  EXPECT_EQ(&handles[1].engine->registry(), &handles[0].engine->registry());
  for (size_t i = 0; i < variants.size(); ++i) {
    ExpectSameResult(TSExplain(*table, variants[i]).Run(),
                     handles[i].engine->Run(),
                     "variant " + std::to_string(i));
  }

  const std::weak_ptr<const CubePartials> watched = partials;
  ASSERT_TRUE(registry.Drop("ds"));
  handles.pop_back();
  handles.pop_back();
  EXPECT_FALSE(watched.expired());  // the last lease still holds it
  handles.clear();
  EXPECT_TRUE(watched.expired());
}

TEST(PrecomputationService, SessionAppendsLeaveTheResidentUntouched) {
  const auto table = MakeTable();
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("ds", table, "<table>", &error));
  TSExplainConfig config;
  config.measure = "amount";
  config.explain_by_names = {"bank", "city", "item", "zone"};
  EngineHandle handle =
      registry.GetOrBuildEngine("ds", "all", config, table.get(), &error);
  ASSERT_TRUE(handle.ok()) << error;
  const std::shared_ptr<const CubePartials> resident =
      handle.engine->cube().partials();
  const CubePartials before = *resident;

  // A session on the same rows builds its own precomputation.
  StreamingTSExplain session(*table, config);
  EXPECT_NE(session.cube().partials(), resident);
  session.Explain();
  const CubePartials* owned = session.cube().partials().get();
  // Every tuple of the last bucket again: no new cell, so no rebuild.
  std::vector<StreamRow> rows;
  for (size_t row = 0; row < table->num_rows(); ++row) {
    if (table->time(row) != 23) continue;
    StreamRow r;
    for (AttrId a = 0; a < 4; ++a) {
      r.dims.push_back(table->dictionary(a).ToString(table->dim(row, a)));
    }
    r.measures = {table->measure(row, 0), table->measure(row, 1)};
    rows.push_back(std::move(r));
  }
  session.AppendBucket("t24", rows);
  ASSERT_FALSE(session.last_append_rebuilt());
  EXPECT_EQ(session.cube().partials().get(), owned);  // in place
  EXPECT_EQ(session.cube().n(), 25u);
  session.Explain();

  EXPECT_EQ(resident->overall.size(), before.overall.size());
  EXPECT_EQ(resident->slice_sums, before.slice_sums);
  EXPECT_EQ(resident->slice_counts, before.slice_counts);
  EXPECT_EQ(handle.engine->cube().n(), 24u);
}

}  // namespace
}  // namespace tsexplain
