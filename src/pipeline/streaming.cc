#include "src/pipeline/streaming.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace tsexplain {

namespace {

// Per-append latency (docs/OBSERVABILITY.md). Covers both the
// incremental path and the fall-back full rebuild, so the histogram's
// tail is where rebuild storms show up.
Histogram& AppendBucketMs() {
  static Histogram& histogram =
      MetricRegistry::Global().GetHistogram("streaming.append_bucket_ms");
  return histogram;
}

}  // namespace

StreamingTSExplain::StreamingTSExplain(const Table& initial,
                                       TSExplainConfig config)
    : table_(std::make_unique<Table>(initial)),
      engine_(std::make_unique<TSExplain>(*table_, std::move(config))) {}

void StreamingTSExplain::AppendBucket(const std::string& label,
                                      const std::vector<StreamRow>& rows) {
  Timer append_timer;
  const size_t first_row = table_->num_rows();
  const TimeId t = table_->AddTimeBucket(label);
  for (const StreamRow& row : rows) {
    table_->AppendRow(t, row.dims, row.measures);
  }
  last_append_rebuilt_ = !engine_->AppendBucket(first_row);
  if (last_append_rebuilt_) {
    engine_ = std::make_unique<TSExplain>(*table_, engine_->config());
  }
  AppendBucketMs().Observe(append_timer.ElapsedMs());
  if (append_observer_) append_observer_(label, rows);
}

TSExplainResult StreamingTSExplain::Explain(int threads_override) {
  const int num_points = n();
  TSE_CHECK_GE(num_points, 3);
  SegmentationSpec spec = SegmentationSpec::FromConfig(engine_->config());
  if (threads_override > 0) spec.threads = threads_override;

  std::vector<int> positions;
  if (first_run_done_) {
    // Incremental: previous cuts + every point appended since last run.
    positions = last_cuts_;
    for (int p = std::max(1, last_n_ - 1); p < num_points; ++p) {
      positions.push_back(p);
    }
    positions.push_back(0);
    positions.push_back(num_points - 1);
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
  }
  TSExplainResult result =
      engine_->Run(spec, first_run_done_ ? &positions : nullptr);
  last_cuts_ = result.segmentation.cuts;
  last_n_ = num_points;
  first_run_done_ = true;
  return result;
}

}  // namespace tsexplain
