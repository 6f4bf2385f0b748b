// Cached per-segment top-explanation provider.
//
// Bridges modules (a) and (b) of the pipeline: for a segment [a, b] it
// fills the per-cell gamma vector from the cube (module (a), batched via
// ExplanationCube::ScoreSelect, which under O1 also makes guess-and-verify's
// first selection in the same pass) and runs the Cascading Analysts
// algorithm (module (b)), caching the result so every segment is explained
// at most once per query. The K-Segmentation module asks for the same segments
// repeatedly while computing distances and variances, so this cache is what
// makes the n^3 phase feasible.
//
// Concurrency: TopFor is REENTRANT. The cache is sharded (one mutex +
// condition variable per shard) with single-flight semantics -- concurrent
// requests for the same segment compute it exactly once, so instrumentation
// like ca_invocations() is deterministic at any thread count. Each in-flight
// computation checks a CascadingAnalysts solver + gamma scratch out of a
// small free pool (solvers are stateful; one is never shared between two
// concurrent computations). Returned references stay valid until
// ClearCache(), which must not run concurrently with TopFor.

#ifndef TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_
#define TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/cube/explanation_cube.h"
#include "src/diff/cascading_analysts.h"
#include "src/diff/guess_verify.h"

namespace tsexplain {

/// Wall-clock breakdown mirroring the paper's Figure 15 categories. Under a
/// concurrent pre-warm the buckets sum per-thread elapsed time (CPU-like,
/// may exceed wall clock).
struct ExplainerTiming {
  double precompute_ms = 0.0;  // module (a): gamma fills (+ O1's round 1)
  double cascading_ms = 0.0;   // module (b): CA / guess-and-verify
};

/// Computes and caches E*_m per segment. TopFor/Score are thread-safe;
/// ClearCache is not (quiesce callers first).
class SegmentExplainer {
 public:
  struct Options {
    int m = 3;                       // paper default
    DiffMetricKind metric = DiffMetricKind::kAbsoluteChange;
    bool use_guess_verify = false;   // O1
    int initial_guess = kDefaultInitialGuess;
    /// Support-filter mask (nullptr = no filter). Inactive cells score 0
    /// and are never selected. The pointed-to mask must outlive this
    /// object; after changing it in place, call ClearCache.
    const std::vector<bool>* active = nullptr;
  };

  SegmentExplainer(const ExplanationCube& cube,
                   const ExplanationRegistry& registry, Options options);

  /// Top-m non-overlapping explanations of segment [a, b] (0 <= a < b < n).
  /// The reference stays valid until ClearCache().
  const TopExplanations& TopFor(int a, int b);

  /// Computes (and caches) TopFor for every listed segment, fanning the
  /// cache misses out over the shared ThreadPool with up to `threads`
  /// workers. Segments should be unique (duplicates are safe but waste a
  /// queue slot). Results -- including ca_invocations() -- are bit-identical
  /// to calling TopFor serially in any order.
  void Prewarm(const std::vector<std::pair<int, int>>& segments, int threads);

  /// gamma/tau of one explanation on segment [a, b] (O(1) cube lookup,
  /// not cached). Respects the support filter.
  DiffScore Score(ExplId e, int a, int b) const;

  /// Resets the cache (used by the streaming pipeline when data changes)
  /// and re-packs the mask from Options::active. Takes each shard's lock,
  /// so it is data-race-free against concurrent TopFor — but references
  /// THOSE callers already hold become dangling, and the mask is re-packed
  /// unlocked, so callers must still quiesce before clearing (see class
  /// comment).
  void ClearCache();

  int n() const { return static_cast<int>(cube_.n()); }
  int m() const { return options_.m; }
  const ExplanationCube& cube() const { return cube_; }
  const ExplanationRegistry& registry() const { return registry_; }
  const Options& options() const { return options_; }

  ExplainerTiming timing() const;
  size_t cache_size() const;
  size_t ca_invocations() const;

 private:
  // One CA solver + gamma and selection scratch, checked out for the
  // duration of one cache-miss computation. Pooled so repeated invocations
  // do not allocate and concurrent ones never share state.
  struct WorkerState {
    explicit WorkerState(const ExplanationRegistry& registry)
        : solver(registry) {}
    CascadingAnalysts solver;
    std::vector<double> gamma;
    TopCells top;
  };

  // Single-flight cache entry: `ready` flips under the shard mutex once
  // `top` is populated; waiters block on the shard condition variable. Held
  // by unique_ptr so references survive rehashing and concurrent inserts.
  struct CacheEntry {
    TopExplanations top;
    bool ready = false;
  };
  struct CacheShard {
    mutable Mutex mu;
    CondVar cv;
    std::unordered_map<uint64_t, std::unique_ptr<CacheEntry>> map
        TSE_GUARDED_BY(mu);
  };
  static constexpr size_t kNumShards = 64;  // power of two

  TopExplanations ComputeTop(int a, int b);
  std::unique_ptr<WorkerState> AcquireWorkerState();
  void ReleaseWorkerState(std::unique_ptr<WorkerState> state);

  const ExplanationCube& cube_;
  const ExplanationRegistry& registry_;
  Options options_;
  // *options_.active packed for the scoring kernels (empty = no mask).
  std::vector<uint64_t> active_bits_;

  std::vector<CacheShard> shards_;  // sized kNumShards

  Mutex pool_mu_;
  std::vector<std::unique_ptr<WorkerState>> worker_pool_
      TSE_GUARDED_BY(pool_mu_);

  mutable Mutex stats_mu_;
  ExplainerTiming timing_ TSE_GUARDED_BY(stats_mu_);
  size_t ca_invocations_ TSE_GUARDED_BY(stats_mu_) = 0;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_
