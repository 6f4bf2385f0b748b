// ResultCache contract: LRU eviction + byte accounting, invalidation
// scoping, and per-prefix budgets. Duplicate suppression under
// concurrency is the AdmissionController's job (test_admission.cc,
// test_service.cc).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/service/result_cache.h"

namespace tsexplain {
namespace {

// A value whose CostBytes is dominated by a JSON payload of known size.
ResultCache::ValuePtr MakeValue(const std::string& payload) {
  auto value = std::make_shared<CachedResult>();
  value->json = payload;
  return value;
}

size_t CostOf(const std::string& payload) {
  return MakeValue(payload)->CostBytes();
}

TEST(ResultCache, HitAfterMiss) {
  ResultCache cache(1 << 20, /*num_shards=*/1);
  bool hit = true;
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return MakeValue("payload");
  };
  ResultCache::ValuePtr first = cache.GetOrCompute("k", compute, &hit);
  EXPECT_FALSE(hit);
  ResultCache::ValuePtr second = cache.GetOrCompute("k", compute, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());  // literally the same object
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_used, CostOf("payload"));
}

TEST(ResultCache, LruEvictionAndAccounting) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  // Room for exactly three entries.
  ResultCache cache(3 * cost, /*num_shards=*/1);
  auto compute = [&] { return MakeValue(payload); };
  bool hit = false;
  cache.GetOrCompute("a", compute, &hit);
  cache.GetOrCompute("b", compute, &hit);
  cache.GetOrCompute("c", compute, &hit);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes_used, 3 * cost);

  // Touch "a" so "b" is the LRU victim when "d" lands.
  cache.GetOrCompute("a", compute, &hit);
  EXPECT_TRUE(hit);
  cache.GetOrCompute("d", compute, &hit);
  EXPECT_FALSE(hit);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_used, 3 * cost);  // accounting stays exact

  cache.GetOrCompute("a", compute, &hit);
  EXPECT_TRUE(hit);  // survived (was MRU)
  cache.GetOrCompute("b", compute, &hit);
  EXPECT_FALSE(hit);  // evicted
}

TEST(ResultCache, OversizedValueIsServedButNotCached) {
  ResultCache cache(64, /*num_shards=*/1);
  bool hit = true;
  const ResultCache::ValuePtr value =
      cache.GetOrCompute("big", [] { return MakeValue(std::string(1000, 'x')); }, &hit);
  ASSERT_NE(value, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST(ResultCache, InvalidatePrefixScopes) {
  // Many shards: the scan must cover all of them.
  ResultCache cache(1 << 20, 8);
  auto compute = [] { return MakeValue("p"); };
  bool hit = false;
  for (int i = 0; i < 16; ++i) {
    cache.GetOrCompute("session/7/q" + std::to_string(i), compute, &hit);
    cache.GetOrCompute("session/8/q" + std::to_string(i), compute, &hit);
  }
  EXPECT_EQ(cache.InvalidatePrefixes({"session/7/"}), 16u);
  EXPECT_EQ(cache.stats().invalidations, 16u);
  for (int i = 0; i < 16; ++i) {
    cache.GetOrCompute("session/8/q" + std::to_string(i), compute, &hit);
    EXPECT_TRUE(hit);
    cache.GetOrCompute("session/7/q" + std::to_string(i), compute, &hit);
    EXPECT_FALSE(hit);
  }
}

// Regression: overwriting a resident key (a computed value landing
// after prefix-invalidation races, warm-start Puts) must charge
// bytes_used for exactly the resident entries — never the sum of old and
// new costs — and eviction must never run against the replaced entry's
// stale cost.
TEST(ResultCache, ReinsertAccountingStaysExact) {
  ResultCache cache(1 << 20, /*num_shards=*/1);
  const std::string small(100, 's');
  const std::string large(5000, 'L');
  const std::string medium(1000, 'm');

  cache.Put("k", MakeValue(small));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(small));

  // Overwrite with a LARGER payload: charged once, at the new cost.
  cache.Put("k", MakeValue(large));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(large));
  EXPECT_EQ(cache.Lookup("k")->json, large);

  // Overwrite with a SMALLER payload: accounting shrinks exactly.
  cache.Put("k", MakeValue(medium));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(medium));
  EXPECT_EQ(cache.Lookup("k")->json, medium);

  // A second resident key keeps its own accounting across overwrites.
  cache.Put("other", MakeValue(small));
  cache.Put("k", MakeValue(large));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(large) + CostOf(small));
  EXPECT_EQ(cache.stats().evictions, 0u);  // capacity was never exceeded
}

// Regression: an oversized fresh value for a resident key must DROP the
// stale entry, not leave it to be served as if it were current.
TEST(ResultCache, OversizedOverwriteDropsTheStaleEntry) {
  const std::string small(100, 's');
  ResultCache cache(4 * CostOf(small), /*num_shards=*/1);
  cache.Put("k", MakeValue(small));
  ASSERT_NE(cache.Lookup("k"), nullptr);

  cache.Put("k", MakeValue(std::string(1 << 16, 'X')));  // over capacity
  EXPECT_EQ(cache.Lookup("k"), nullptr);  // stale value must not survive
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST(ResultCache, PrefixBudgetEvictsWithinTheNamespaceOnly) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  // Global capacity fits everything; the tenant budget fits 3 entries.
  ResultCache cache(100 * cost, /*num_shards=*/1);
  cache.SetPrefixBudget("tenant/a/", 3 * cost);

  bool hit = false;
  auto compute = [&] { return MakeValue(payload); };
  cache.GetOrCompute("global-1", compute, &hit);
  cache.GetOrCompute("tenant/a/q1", compute, &hit);
  cache.GetOrCompute("tenant/a/q2", compute, &hit);
  cache.GetOrCompute("tenant/a/q3", compute, &hit);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.PrefixBytesMany({"tenant/a/"})[0], 3 * cost);

  // A fourth tenant entry evicts the tenant's own LRU tail (q1) — the
  // global entry is untouchable by this namespace's pressure.
  cache.GetOrCompute("tenant/a/q4", compute, &hit);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.PrefixBytesMany({"tenant/a/"})[0], 3 * cost);
  EXPECT_EQ(cache.stats().budget_evictions, 1u);
  EXPECT_NE(cache.Lookup("global-1"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/a/q1"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q2"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q4"), nullptr);
  EXPECT_EQ(cache.stats().bytes_used, 4 * cost);  // 3 tenant + 1 global
}

TEST(ResultCache, PrefixBudgetTouchKeepsHotEntriesResident) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  ResultCache cache(100 * cost, 1);
  cache.SetPrefixBudget("tenant/a/", 2 * cost);
  bool hit = false;
  auto compute = [&] { return MakeValue(payload); };
  cache.GetOrCompute("tenant/a/hot", compute, &hit);
  cache.GetOrCompute("tenant/a/cold", compute, &hit);
  cache.GetOrCompute("tenant/a/hot", compute, &hit);  // touch
  EXPECT_TRUE(hit);
  cache.GetOrCompute("tenant/a/new", compute, &hit);  // evicts "cold"
  EXPECT_NE(cache.Lookup("tenant/a/hot"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/a/cold"), nullptr);
}

TEST(ResultCache, ValueOverItsPrefixBudgetIsServedNotCached) {
  const std::string payload(1000, 'x');
  ResultCache cache(1 << 20, 1);
  cache.SetPrefixBudget("tenant/tiny/", 8);  // smaller than any entry
  bool hit = true;
  const ResultCache::ValuePtr value =
      cache.GetOrCompute("tenant/tiny/q", [&] { return MakeValue(payload); },
                         &hit);
  ASSERT_NE(value, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.PrefixBytesMany({"tenant/tiny/"})[0], 0u);
}

TEST(ResultCache, ShrinkingABudgetEvictsResidentEntriesImmediately) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  ResultCache cache(100 * cost, 1);
  bool hit = false;
  auto compute = [&] { return MakeValue(payload); };
  // Entries land before any budget exists (unbudgeted attribution).
  cache.GetOrCompute("tenant/a/q1", compute, &hit);
  cache.GetOrCompute("tenant/a/q2", compute, &hit);
  cache.GetOrCompute("tenant/a/q3", compute, &hit);
  // No budget registered yet: PrefixBytesMany falls back to a full scan
  // and reports the actual resident bytes (the operator-facing stats
  // path).
  EXPECT_EQ(cache.PrefixBytesMany({"tenant/a/"})[0], 3 * cost);

  // Installing the budget re-attributes resident entries and enforces
  // the bound at once (LRU within the prefix: q1 goes first).
  cache.SetPrefixBudget("tenant/a/", 2 * cost);
  EXPECT_EQ(cache.PrefixBytesMany({"tenant/a/"})[0], 2 * cost);
  EXPECT_EQ(cache.Lookup("tenant/a/q1"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q2"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q3"), nullptr);
  EXPECT_EQ(cache.stats().bytes_used, 2 * cost);
}

// Budget eviction walks the LRU list from the tail and removes only the
// budget's own entries, as many as it takes, stepping over other
// namespaces' entries in between.
TEST(ResultCache, BudgetEvictionSkipsOtherNamespaces) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  ResultCache cache(100 * cost, 1);
  for (const char* key : {"tenant/a/q1", "global-1", "tenant/a/q2",
                          "global-2", "tenant/a/q3"}) {
    cache.Put(key, MakeValue(payload));
  }
  cache.SetPrefixBudget("tenant/a/", cost);
  EXPECT_EQ(cache.stats().budget_evictions, 2u);
  EXPECT_EQ(cache.Lookup("tenant/a/q1"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/a/q2"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q3"), nullptr);
  EXPECT_NE(cache.Lookup("global-1"), nullptr);
  EXPECT_NE(cache.Lookup("global-2"), nullptr);
  EXPECT_EQ(cache.stats().bytes_used, 3 * cost);
}

TEST(ResultCache, FailedComputeIsNotCached) {
  ResultCache cache(1 << 20, 1);
  bool hit = true;
  const ResultCache::ValuePtr failed =
      cache.GetOrCompute("k", [] { return ResultCache::ValuePtr(); }, &hit);
  EXPECT_EQ(failed, nullptr);
  EXPECT_FALSE(hit);
  // The next request retries instead of serving the failure.
  const ResultCache::ValuePtr ok =
      cache.GetOrCompute("k", [] { return MakeValue("p"); }, &hit);
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(hit);
}

}  // namespace
}  // namespace tsexplain
