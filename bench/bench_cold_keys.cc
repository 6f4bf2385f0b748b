// Cold engine keys on Liquor: the service's first-touch cost per key, and
// per engine layer, as DatasetRegistry builds engines.
//
// The key set is the repository benchmark's cold_liquor cycle: every
// explain-by subset of Liquor's four dimensions with two or more
// attributes, crossed with measure-side variants (three for pairs, one
// for triples, four for the full set), 26 keys, all "fast" (support
// filter + O1 + O2). Each cycle registers the table afresh, then builds
// and runs every key once through DatasetRegistry::GetOrBuildEngine, one
// thread, in a fixed order. Reported as medians over the cycles:
//   cold_keys.liquor.cycle_ms        — the whole cycle
//   cold_keys.liquor.p50_ms / p90_ms — per-key build + first run
//   cold_keys.liquor.<layer>         — one engine layer (its span name,
//                                      e.g. diff.registry_build), summed
//                                      over the cycle's 26 first runs
//
// Emits BENCH_RESULT lines for tools/run_benches.sh; compare two captures
// layer by layer with tools/bench_diff.py.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/common/timer.h"
#include "src/datagen/liquor_sim.h"
#include "src/service/dataset_registry.h"

namespace tsexplain {
namespace {

constexpr int kCycles = 5;

struct Key {
  std::vector<std::string> explain_by;
  AggregateFunction aggregate;
  DiffMetricKind diff;
};

std::vector<Key> ColdKeys() {
  const char* dims[] = {"BV", "CN", "P", "VN"};
  const AggregateFunction sum = AggregateFunction::kSum;
  const AggregateFunction avg = AggregateFunction::kAvg;
  const DiffMetricKind abs = DiffMetricKind::kAbsoluteChange;
  const DiffMetricKind rel = DiffMetricKind::kRelativeChange;
  const DiffMetricKind rr = DiffMetricKind::kRiskRatio;
  std::vector<Key> keys;
  for (int mask = 1; mask < 16; ++mask) {
    std::vector<std::string> by;
    for (int i = 0; i < 4; ++i) {
      if (mask >> i & 1) by.push_back(dims[i]);
    }
    if (by.size() == 2) {
      keys.push_back({by, sum, abs});
      keys.push_back({by, avg, rel});
      keys.push_back({by, sum, rr});
    } else if (by.size() == 3) {
      keys.push_back({by, sum, abs});
    } else if (by.size() == 4) {
      keys.push_back({by, sum, abs});
      keys.push_back({by, avg, rel});
      keys.push_back({by, sum, rel});
      keys.push_back({by, avg, abs});
    }
  }
  return keys;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Run() {
  bench::PrintHeader("Cold engine keys on one Liquor registration");
  const std::shared_ptr<const Table> table(MakeLiquorTable());
  const std::vector<Key> keys = ColdKeys();
  std::printf("%zu rows, %zu keys per cycle, %d cycles\n", table->num_rows(),
              keys.size(), kCycles);

  std::vector<double> cycle_ms, p50_ms, p90_ms;
  std::map<std::string, std::vector<double>> layer_ms;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    DatasetRegistry registry;
    std::string error;
    if (!registry.RegisterTable("liquor", table, "<table>", &error)) {
      std::fprintf(stderr, "register failed: %s\n", error.c_str());
      return;
    }
    std::vector<double> latencies;
    std::map<std::string, double> layers;
    Timer cycle_timer;
    for (size_t i = 0; i < keys.size(); ++i) {
      TSExplainConfig config;
      config.measure = "bottles_sold";
      config.explain_by_names = keys[i].explain_by;
      config.aggregate = keys[i].aggregate;
      config.diff_metric = keys[i].diff;
      config.use_filter = config.use_guess_verify = config.use_sketch = true;
      Timer key_timer;
      EngineHandle handle = registry.GetOrBuildEngine(
          "liquor", "key" + std::to_string(i), config, table.get(), &error);
      if (!handle.ok()) {
        std::fprintf(stderr, "engine failed: %s\n", error.c_str());
        return;
      }
      const TSExplainResult result = handle.engine->Run();
      latencies.push_back(key_timer.ElapsedMs());
      for (const TraceSpan& span : result.spans) {
        if (span.parent >= 0 && span.name != "other") {
          layers[span.name] += span.duration_ms;
        }
      }
    }
    cycle_ms.push_back(cycle_timer.ElapsedMs());
    std::sort(latencies.begin(), latencies.end());
    p50_ms.push_back(latencies[latencies.size() / 2]);
    p90_ms.push_back(latencies[latencies.size() * 9 / 10]);
    for (const auto& [name, ms] : layers) layer_ms[name].push_back(ms);
    std::printf("cycle %d: %s, p50 %s, p90 %s\n", cycle,
                bench::FormatMs(cycle_ms.back()).c_str(),
                bench::FormatMs(p50_ms.back()).c_str(),
                bench::FormatMs(p90_ms.back()).c_str());
  }
  bench::EmitResult("cold_keys.liquor.cycle_ms", Median(cycle_ms));
  bench::EmitResult("cold_keys.liquor.p50_ms", Median(p50_ms));
  bench::EmitResult("cold_keys.liquor.p90_ms", Median(p90_ms));
  for (const auto& [name, values] : layer_ms) {
    bench::EmitResult("cold_keys.liquor." + name, Median(values));
  }
  bench::EmitMetricsSnapshot();
}

}  // namespace
}  // namespace tsexplain

int main() {
  tsexplain::Run();
  return 0;
}
