#include "src/seg/segment_explainer.h"

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/cube/score_kernels.h"
#include "src/seg/ndcg.h"

namespace tsexplain {
namespace {

// Key is independent of n so cached entries stay valid when the cube grows
// (streaming extension appends buckets; old partials never change).
inline uint64_t SegmentKey(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

// Shard selector: mix the key so consecutive segments spread across shards
// (a raw modulo would put all unit segments with the same low bits on one
// shard during the pre-warm fan-out).
inline size_t ShardFor(uint64_t key, size_t num_shards) {
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (num_shards - 1);
}

}  // namespace

SegmentExplainer::SegmentExplainer(const ExplanationCube& cube,
                                   const ExplanationRegistry& registry,
                                   Options options)
    : cube_(cube),
      registry_(registry),
      options_(options),
      shards_(kNumShards) {
  static_assert((kNumShards & (kNumShards - 1)) == 0,
                "shard count must be a power of two");
  TSE_CHECK_GE(options_.m, 1);
  if (options_.active != nullptr) {
    TSE_CHECK_EQ(options_.active->size(), registry.num_explanations());
    active_bits_ = PackActiveMask(*options_.active);
  }
}

std::unique_ptr<SegmentExplainer::WorkerState>
SegmentExplainer::AcquireWorkerState() {
  {
    MutexLock lock(pool_mu_);
    if (!worker_pool_.empty()) {
      std::unique_ptr<WorkerState> state = std::move(worker_pool_.back());
      worker_pool_.pop_back();
      return state;
    }
  }
  auto state = std::make_unique<WorkerState>(registry_);
  state->gamma.assign(registry_.num_explanations(), 0.0);
  return state;
}

void SegmentExplainer::ReleaseWorkerState(
    std::unique_ptr<WorkerState> state) {
  MutexLock lock(pool_mu_);
  worker_pool_.push_back(std::move(state));
}

TopExplanations SegmentExplainer::ComputeTop(int a, int b) {
  std::unique_ptr<WorkerState> ws = AcquireWorkerState();
  double precompute_ms = 0.0;
  double cascading_ms = 0.0;
  {
    // Module (a): one pass over the cells fills gamma (0 where inactive)
    // and, under O1, makes guess-and-verify's first selection.
    ScopedTimer t(&precompute_ms);
    TopCells* top = nullptr;
    if (options_.use_guess_verify) {
      ws->top.Reset(FirstRoundNeed(ws->gamma.size(), options_.m,
                                   options_.initial_guess));
      top = &ws->top;
    }
    cube_.ScoreSelect(options_.metric, static_cast<size_t>(a),
                      static_cast<size_t>(b),
                      active_bits_.empty() ? nullptr : active_bits_.data(),
                      &ws->gamma, top);
  }

  TopExplanations result;
  {
    // Module (b): Cascading Analysts (optionally guess-and-verify).
    ScopedTimer t(&cascading_ms);
    if (options_.use_guess_verify) {
      // Inactive cells score 0, so no later round's rescan selects them
      // without consulting the mask.
      result = GuessVerifyFromSelection(ws->solver, ws->gamma, options_.m,
                                        /*selectable=*/nullptr,
                                        options_.initial_guess, &ws->top);
    } else {
      result = ws->solver.TopM(ws->gamma, options_.m, options_.active);
    }
    // Cache the ideal DCG (Eq. 4) and each selection's change effect on
    // this segment for the distance computations.
    result.idcg = 0.0;
    result.taus.resize(result.ids.size());
    for (size_t r = 0; r < result.ids.size(); ++r) {
      result.idcg += result.gammas[r] / RankDiscount(r);
      result.taus[r] = cube_.Score(options_.metric, result.ids[r],
                                   static_cast<size_t>(a),
                                   static_cast<size_t>(b))
                           .tau;
    }
  }
  ReleaseWorkerState(std::move(ws));
  {
    MutexLock lock(stats_mu_);
    timing_.precompute_ms += precompute_ms;
    timing_.cascading_ms += cascading_ms;
    ++ca_invocations_;
  }
  return result;
}

const TopExplanations& SegmentExplainer::TopFor(int a, int b) {
  TSE_CHECK_GE(a, 0);
  TSE_CHECK_LT(a, b);
  TSE_CHECK_LT(b, n());
  const uint64_t key = SegmentKey(a, b);
  CacheShard& shard = shards_[ShardFor(key, kNumShards)];
  CacheEntry* entry = nullptr;
  {
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      entry = it->second.get();
      // Single-flight: another thread is computing this segment; wait for
      // it instead of redoing the CA work (keeps ca_invocations exact).
      while (!entry->ready) shard.cv.Wait(shard.mu);
      return entry->top;
    }
    auto owned = std::make_unique<CacheEntry>();
    entry = owned.get();
    shard.map.emplace(key, std::move(owned));
  }

  TopExplanations result = ComputeTop(a, b);
  {
    MutexLock lock(shard.mu);
    entry->top = std::move(result);
    entry->ready = true;
  }
  shard.cv.NotifyAll();
  return entry->top;
}

void SegmentExplainer::Prewarm(
    const std::vector<std::pair<int, int>>& segments, int threads) {
  if (segments.empty()) return;
  if (threads <= 1 || segments.size() == 1) {
    for (const auto& [a, b] : segments) TopFor(a, b);
    return;
  }
  ThreadPool::Shared().ParallelFor(
      segments.size(), threads,
      [this, &segments](size_t i) {
        TopFor(segments[i].first, segments[i].second);
      });
}

DiffScore SegmentExplainer::Score(ExplId e, int a, int b) const {
  if (options_.active != nullptr &&
      !(*options_.active)[static_cast<size_t>(e)]) {
    return DiffScore{};
  }
  return cube_.Score(options_.metric, e, static_cast<size_t>(a),
                     static_cast<size_t>(b));
}

void SegmentExplainer::ClearCache() {
  if (options_.active != nullptr) {
    active_bits_ = PackActiveMask(*options_.active);
  }
  // Take each shard's lock: a racing TopFor must never observe a
  // half-cleared map (it previously iterated the shards unlocked, which
  // was a data race whenever the streaming pipeline cleared while a
  // background pre-warm was still draining).
  for (CacheShard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.map.clear();
  }
}

ExplainerTiming SegmentExplainer::timing() const {
  MutexLock lock(stats_mu_);
  return timing_;
}

size_t SegmentExplainer::cache_size() const {
  size_t total = 0;
  for (const CacheShard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

size_t SegmentExplainer::ca_invocations() const {
  MutexLock lock(stats_mu_);
  return ca_invocations_;
}

}  // namespace tsexplain
