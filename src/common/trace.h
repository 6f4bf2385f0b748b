// Trace spans: a flat tree of (name, start offset, duration, parent)
// records, the one timing model from the engine out to the wire.
//
// The engine (src/pipeline/tsexplain.h) records its layers — registry
// build, cube build, mask, variance table, DP, ... — as spans of one
// QueryTrace per Run and returns the finalized tree; the paper's
// module (a)/(b)/(c) split (Figure 15, TimingBreakdown) is a sum over
// those spans. The service opens a second QueryTrace per request for
// what happens *around* the engine (cache lookup, admission wait, JSON
// render) and grafts the engine's tree into it when the request sets
// "trace": true.
//
// The invariant: after Finalize(), every parent's direct children
// partition its wall clock exactly — gaps become an explicit "other"
// span and overshoot (children timed on other threads or clocks) scales
// children down. Finalize is the only place clamp-and-scale happens.
//
// A QueryTrace is a handful of small records; the service builds one
// only when the caller asked for a trace, and its call sites take a
// nullable pointer, so a null trace costs a single branch.

#ifndef TSEXPLAIN_COMMON_TRACE_H_
#define TSEXPLAIN_COMMON_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/timer.h"

namespace tsexplain {

struct TraceSpan {
  std::string name;
  double start_ms = 0.0;     // offset from the root span's start
  double duration_ms = 0.0;
  int parent = -1;           // index into the span vector; -1 = root
};

/// Collects spans for one request or one engine run. Not thread-safe: a
/// trace belongs to the single thread that created it (work fanned out
/// to worker threads is recorded as counted spans, see AddSpan).
class QueryTrace {
 public:
  /// Starts the clock and opens the root span (index 0). The clock reads
  /// `origin_ms` now: time charged to this trace from before it started
  /// (an engine's build, charged to its first run) fills [0, origin_ms).
  explicit QueryTrace(std::string root_name = "query", double origin_ms = 0.0);

  /// Opens a span starting now; returns its index. Close it with
  /// EndSpan. `parent` defaults to the root.
  int BeginSpan(const std::string& name, int parent = 0);
  void EndSpan(int index);

  /// Records a fully-formed span: work timed elsewhere, e.g. the summed
  /// per-call time of a layer that ran inside `parent`, possibly on
  /// several threads (Finalize scales such children to fit).
  int AddSpan(const std::string& name, double start_ms, double duration_ms,
              int parent);

  /// Copies `spans[index]` and its descendants (parents precede
  /// children, as in spans()) under `parent`, shifting every start
  /// offset by `shift_ms`. Returns the copy's index.
  int Graft(const std::vector<TraceSpan>& spans, size_t index, int parent,
            double shift_ms);

  /// Milliseconds on this trace's clock — the clock every span offset is
  /// measured on.
  double ElapsedMs() const { return origin_ms_ + timer_.ElapsedMs(); }

  /// Sets the root duration to `total_ms` and enforces the partition
  /// invariant top-down: for every parent, child durations are clamped
  /// to >= 0, scaled down if they exceed the parent, and any remaining
  /// gap > 1e-6 ms becomes a trailing "other" child. After this call,
  /// sum(direct children) == parent duration for every parent that has
  /// children. Call exactly once, when the trace is complete.
  void Finalize(double total_ms);

  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  Timer timer_;
  double origin_ms_ = 0.0;
  std::vector<TraceSpan> spans_;
  bool finalized_ = false;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_COMMON_TRACE_H_
