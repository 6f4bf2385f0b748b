// Reproduces paper Figure 15: TSExplain latency breakdown (precomputation
// / cascading analysts / K-segmentation) under the optimization presets
// Vanilla, w-filter, O1, O2, O1+O2, for all four real-world datasets. K is
// unspecified (elbow selection included, as in the paper).
//
// Expected shape: filtering matters little for Covid (epsilon barely
// shrinks) but a lot for S&P 500 / Liquor; O2 (sketching) dominates when n
// is large (Covid); O1 (guess-and-verify) dominates when epsilon is large
// (Liquor); O1+O2 is fastest overall. Absolute numbers differ from the
// paper's M1 laptop.
//
// Besides each preset's total, the self time of every engine layer of
// the run is emitted as fig15.<dataset>.<preset>.<layer>, e.g.
// fig15.liquor.o1_o2.diff.ca. Self time is read off the run's span tree
// (TSExplainResult::spans): a span's duration minus its children's, so a
// stage excludes the gamma fills and CA counted under it and the layers
// add up to the total (less the engine's unattributed "other").

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/common/timer.h"

namespace tsexplain {
namespace {

void Run() {
  bench::PrintHeader("Figure 15: latency breakdown per optimization preset");

  for (bench::Workload& w : bench::AllWorkloads()) {
    bench::PrintSubHeader(w.name);
    std::printf("  %-10s %14s %14s %14s %14s\n", "preset", "precompute",
                "cascading", "segmentation", "TOTAL");
    double vanilla_total = 0.0, best_total = 1e18;
    for (bench::OptPreset preset : bench::kAllPresets) {
      TSExplainConfig config = w.config;
      bench::ApplyPreset(preset, &config);
      Timer timer;
      TSExplain engine(*w.table, config);
      const TSExplainResult result = engine.Run();
      const double wall = timer.ElapsedMs();
      std::printf("  %-10s %s %s %s %s  (wall %s)\n",
                  bench::PresetName(preset),
                  bench::FormatMs(result.timing.precompute_ms).c_str(),
                  bench::FormatMs(result.timing.cascading_ms).c_str(),
                  bench::FormatMs(result.timing.segmentation_ms).c_str(),
                  bench::FormatMs(result.timing.TotalMs()).c_str(),
                  bench::FormatMs(wall).c_str());
      const std::string slug = "fig15." + bench::ResultSlug(w.name) + "." +
                               bench::ResultSlug(bench::PresetName(preset));
      bench::EmitResult(slug, result.timing.TotalMs());
      const std::vector<TraceSpan>& spans = result.spans;
      std::vector<double> self_ms(spans.size());
      for (size_t i = 0; i < spans.size(); ++i) {
        self_ms[i] += spans[i].duration_ms;
        if (spans[i].parent >= 0) {
          self_ms[static_cast<size_t>(spans[i].parent)] -=
              spans[i].duration_ms;
        }
      }
      std::map<std::string, double> layer_ms;
      for (size_t i = 1; i < spans.size(); ++i) {
        // An "other" span is its parent's time outside the children.
        const int owner = spans[i].name == "other" ? spans[i].parent
                                                   : static_cast<int>(i);
        if (owner <= 0) continue;  // the root's own residue
        layer_ms[spans[static_cast<size_t>(owner)].name] += self_ms[i];
      }
      for (const auto& [layer, ms] : layer_ms) {
        bench::EmitResult(slug + "." + layer, ms);
      }
      if (preset == bench::OptPreset::kVanilla) {
        vanilla_total = result.timing.TotalMs();
      }
      best_total = std::min(best_total, result.timing.TotalMs());
    }
    std::printf("  speedup Vanilla -> best preset: %.1fx\n",
                vanilla_total / best_total);
  }
}

}  // namespace
}  // namespace tsexplain

int main() {
  tsexplain::Run();
  return 0;
}
