// Sharded, byte-bounded LRU result cache.
//
// Keys are canonical query keys (see query_key.h); values are immutable
// computed results shared out by shared_ptr, so eviction never invalidates
// a response a client is still reading. Each shard has its own mutex, LRU
// list, and byte accounting; a key's shard is a hash of the key, so
// unrelated queries do not contend.
//
// The cache does not deduplicate concurrent misses: two callers that
// miss the same key at once both compute it. In the service that never
// happens, because the AdmissionController (admission.h) parks duplicate
// cold queries on the in-flight leader until its value is inserted here.
// Computations run OUTSIDE the shard lock, so long computations never
// block unrelated cache traffic.

#ifndef TSEXPLAIN_SERVICE_RESULT_CACHE_H_
#define TSEXPLAIN_SERVICE_RESULT_CACHE_H_

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {

/// One cached explanation outcome: the structured result plus its
/// pre-rendered wire JSON (byte-identical for every consumer).
struct CachedResult {
  std::shared_ptr<const TSExplainResult> result;
  std::string json;

  /// Approximate heap footprint used for capacity accounting. The JSON
  /// string dominates; the structured result is charged per segment /
  /// explanation / curve entry.
  size_t CostBytes() const;
};

class ResultCache {
 public:
  using ValuePtr = std::shared_ptr<const CachedResult>;
  /// Must not throw; returns nullptr on failure (not cached).
  using ComputeFn = std::function<ValuePtr()>;

  struct Stats {
    size_t hits = 0;         // served from a resident entry
    size_t misses = 0;       // ran a computation
    size_t evictions = 0;    // entries removed to respect capacity
    size_t budget_evictions = 0;  // subset of evictions: prefix budgets
    size_t invalidations = 0;
    size_t entries = 0;      // current resident entries
    size_t bytes_used = 0;   // current resident cost
    size_t capacity_bytes = 0;
  };

  /// `capacity_bytes` bounds the sum of entry costs; `num_shards` >= 1
  /// (rounded up to a power of two).
  explicit ResultCache(size_t capacity_bytes, int num_shards = 8);

  /// Un-counts resident entries from the global cache.entries /
  /// cache.bytes_used gauges so short-lived caches (tests, restarts) do
  /// not leave the process-wide registry drifting.
  ~ResultCache();

  /// Returns the cached value for `key`; on a miss, counts one miss,
  /// runs `compute` outside the shard lock and inserts its value (a
  /// nullptr is returned but not cached). `was_hit` (optional) reports
  /// whether the value was already resident.
  ValuePtr GetOrCompute(const std::string& key, const ComputeFn& compute,
                        bool* was_hit = nullptr);

  /// Hit-only probe: the resident value (LRU-touched, counted as a hit)
  /// or nullptr, never computing. The service's fast path uses this so
  /// hot requests bypass admission control entirely.
  ValuePtr Lookup(const std::string& key);

  /// Direct insert/overwrite with the same accounting and eviction as a
  /// computed miss: overwriting never double-charges `bytes_used`,
  /// and an oversized value drops any stale resident entry rather than
  /// leaving it to be served. Used for warm-starts and tests.
  void Put(const std::string& key, const ValuePtr& value);

  /// Installs (or resizes) a byte budget for every key starting with
  /// `prefix` — the per-tenant / per-dataset quota hook: entries under
  /// the prefix are evicted (LRU within the prefix) once their summed
  /// cost exceeds the budget, so one namespace can no longer evict the
  /// world. Like the global capacity, the budget is divided across
  /// shards, so budgets should be generous multiples of a typical entry
  /// cost. The first matching registered prefix wins; resident entries
  /// are re-attributed (and possibly evicted) immediately.
  void SetPrefixBudget(const std::string& prefix, size_t budget_bytes);

  /// Resident bytes for SEVERAL disjoint prefixes in one pass (an entry
  /// is charged to the first prefix that matches). The stats op asks for
  /// every tenant namespace at once; one O(entries) scan replaces
  /// O(tenants) scans.
  std::vector<size_t> PrefixBytesMany(
      const std::vector<std::string>& prefixes) const;

  /// Copies every resident entry, least recently used FIRST (per shard),
  /// so re-Putting a snapshot in order reproduces each shard's LRU
  /// ordering (a key always rehashes to the same shard). The cache
  /// persistence layer's export hook; O(entries).
  std::vector<std::pair<std::string, ValuePtr>> ExportEntries() const;

  /// Drops every resident entry whose key starts with any of `prefixes`
  /// in ONE full scan; returns the number removed. Used by streaming
  /// sessions ("session/<id>/") and dataset drops (the shared namespace
  /// plus every tenant namespace) — rare operations, so the scan is
  /// acceptable.
  size_t InvalidatePrefixes(const std::vector<std::string>& prefixes);

  Stats stats() const;

 private:
  struct Entry {
    ValuePtr value;
    size_t cost = 0;
    int budget = -1;  // index into the budget list; -1 = unbudgeted
    std::list<std::string>::iterator lru_pos;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, Entry> entries TSE_GUARDED_BY(mu);
    std::list<std::string> lru TSE_GUARDED_BY(mu);  // front = most recent
    size_t bytes_used TSE_GUARDED_BY(mu) = 0;
    // Parallel to the budget list.
    std::vector<size_t> budget_bytes TSE_GUARDED_BY(mu);
    size_t hits TSE_GUARDED_BY(mu) = 0;
    size_t misses TSE_GUARDED_BY(mu) = 0;
    size_t evictions TSE_GUARDED_BY(mu) = 0;
    size_t budget_evictions TSE_GUARDED_BY(mu) = 0;
    size_t invalidations TSE_GUARDED_BY(mu) = 0;
  };
  struct Budget {
    std::string prefix;
    size_t per_shard = 0;
  };
  using BudgetList = std::vector<Budget>;
  using BudgetsPtr = std::shared_ptr<const BudgetList>;

  Shard& ShardFor(const std::string& key);
  BudgetsPtr SnapshotBudgets() const TSE_EXCLUDES(budgets_mu_);
  static int MatchBudget(const BudgetList& budgets, const std::string& key);
  // Removes one entry with exact byte/budget accounting; `it` must be
  // valid. Does NOT bump eviction/invalidation counters (callers do).
  static void RemoveEntryLocked(
      Shard& shard, std::unordered_map<std::string, Entry>::iterator it)
      TSE_REQUIRES(shard.mu);
  // The resident value for `key` (LRU-touched, counted as a hit) or
  // nullptr.
  static ValuePtr TouchLocked(Shard& shard, const std::string& key)
      TSE_REQUIRES(shard.mu);
  // Evicts budget `b`'s own entries, least recently used first, until the
  // shard's bytes under that budget fit it again.
  static void EvictOverBudgetLocked(Shard& shard, const BudgetList& budgets,
                                    size_t b) TSE_REQUIRES(shard.mu);
  // Inserts under the shard lock, evicting (budget-scoped first, then
  // global LRU) until all bounds hold again.
  void InsertLocked(Shard& shard, const BudgetList& budgets,
                    const std::string& key, const ValuePtr& value)
      TSE_REQUIRES(shard.mu);

  size_t capacity_per_shard_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex budgets_mu_;  // guards the budgets_ pointer swap
  BudgetsPtr budgets_ TSE_GUARDED_BY(budgets_mu_) =
      std::make_shared<const BudgetList>();
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_RESULT_CACHE_H_
