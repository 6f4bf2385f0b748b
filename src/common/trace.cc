#include "src/common/trace.h"

#include <cstddef>

#include "src/common/check.h"

namespace tsexplain {

namespace {
constexpr double kGapEpsilonMs = 1e-6;
}  // namespace

QueryTrace::QueryTrace(std::string root_name, double origin_ms)
    : origin_ms_(origin_ms) {
  TraceSpan root;
  root.name = std::move(root_name);
  root.parent = -1;
  spans_.push_back(std::move(root));
}

int QueryTrace::BeginSpan(const std::string& name, int parent) {
  TSE_CHECK_GE(parent, 0);
  TSE_CHECK_LT(static_cast<size_t>(parent), spans_.size());
  TraceSpan span;
  span.name = name;
  span.start_ms = ElapsedMs();
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void QueryTrace::EndSpan(int index) {
  TSE_CHECK_GT(index, 0);
  TSE_CHECK_LT(static_cast<size_t>(index), spans_.size());
  TraceSpan& span = spans_[static_cast<size_t>(index)];
  span.duration_ms = ElapsedMs() - span.start_ms;
  if (span.duration_ms < 0.0) span.duration_ms = 0.0;
}

int QueryTrace::AddSpan(const std::string& name, double start_ms,
                        double duration_ms, int parent) {
  TSE_CHECK_GE(parent, 0);
  TSE_CHECK_LT(static_cast<size_t>(parent), spans_.size());
  TraceSpan span;
  span.name = name;
  span.start_ms = start_ms;
  span.duration_ms = duration_ms < 0.0 ? 0.0 : duration_ms;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int QueryTrace::Graft(const std::vector<TraceSpan>& spans, size_t index,
                      int parent, double shift_ms) {
  TSE_CHECK_LT(index, spans.size());
  // copy[i] is the new index of spans[i], or -1 outside the subtree.
  std::vector<int> copy(spans.size(), -1);
  for (size_t i = index; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    int to = parent;
    if (i != index) {
      to = span.parent >= 0 ? copy[static_cast<size_t>(span.parent)] : -1;
      if (to < 0) continue;
    }
    copy[i] = AddSpan(span.name, span.start_ms + shift_ms, span.duration_ms,
                      to);
  }
  return copy[index];
}

void QueryTrace::Finalize(double total_ms) {
  TSE_CHECK(!finalized_) << "QueryTrace::Finalize called twice";
  finalized_ = true;
  spans_[0].duration_ms = total_ms < 0.0 ? 0.0 : total_ms;

  // Parents always precede their children (a child needs its parent's
  // index to exist), so one top-down pass sees every parent with its
  // final duration before fitting that parent's children. Synthetic
  // "other" spans are appended as leaves and never revisited.
  const size_t recorded = spans_.size();
  for (size_t p = 0; p < recorded; ++p) {
    std::vector<size_t> children;
    for (size_t c = p + 1; c < recorded; ++c) {
      if (spans_[c].parent == static_cast<int>(p)) children.push_back(c);
    }
    if (children.empty()) continue;

    const double parent_ms = spans_[p].duration_ms;
    double child_sum = 0.0;
    for (size_t c : children) {
      if (spans_[c].duration_ms < 0.0) spans_[c].duration_ms = 0.0;
      child_sum += spans_[c].duration_ms;
    }
    if (child_sum > parent_ms && child_sum > 0.0) {
      // The children claim more than the parent's wall clock (per-thread
      // sums of work that ran in parallel, or timers on another clock).
      // Scale durations (and start offsets relative to the parent) down
      // so the tree stays consistent.
      const double scale = parent_ms / child_sum;
      for (size_t c : children) {
        spans_[c].duration_ms *= scale;
        spans_[c].start_ms =
            spans_[p].start_ms + (spans_[c].start_ms - spans_[p].start_ms) * scale;
      }
      child_sum = parent_ms;
    }
    const double gap = parent_ms - child_sum;
    if (gap > kGapEpsilonMs) {
      // Unaccounted time inside the parent, attributed to a trailing
      // synthetic span so the children tile the parent exactly.
      TraceSpan other;
      other.name = "other";
      other.start_ms = spans_[p].start_ms + child_sum;
      other.duration_ms = gap;
      other.parent = static_cast<int>(p);
      spans_.push_back(std::move(other));
    } else if (gap > 0.0) {
      // Sub-epsilon remainder: fold it into the last child instead of
      // emitting a degenerate span, keeping the partition exact.
      spans_[children.back()].duration_ms += gap;
    }
  }
}

}  // namespace tsexplain
