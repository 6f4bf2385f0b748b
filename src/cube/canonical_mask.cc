#include "src/cube/canonical_mask.h"

#include <cstring>
#include <unordered_map>

#include "src/common/check.h"

namespace tsexplain {
namespace {

// One multiply-xorshift step per finalized value (its 64-bit pattern) of
// every slice's value stream, all slices at once: the cube stores partials
// time-major, so advancing t in the outer loop and e in the inner one
// sweeps contiguous memory instead of striding through the whole cube once
// per slice. The hash only buckets slices -- SlicesEqual decides -- so
// distinct bit patterns of equal values (+0.0 and -0.0) land in different
// buckets and are never merged, and NaN never equals itself.
std::vector<uint64_t> HashAllSlices(const ExplanationCube& cube) {
  const size_t epsilon = cube.num_explanations();
  std::vector<uint64_t> h(epsilon, 1469598103934665603ULL);
  for (size_t t = 0; t < cube.n(); ++t) {
    for (size_t e = 0; e < epsilon; ++e) {
      const double d = cube.SliceValue(static_cast<ExplId>(e), t);
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      const uint64_t x = (h[e] ^ bits) * 0x9e3779b97f4a7c15ULL;
      h[e] = x ^ (x >> 29);
    }
  }
  return h;
}

bool SlicesEqual(const ExplanationCube& cube, ExplId a, ExplId b) {
  for (size_t t = 0; t < cube.n(); ++t) {
    if (cube.SliceValue(a, t) != cube.SliceValue(b, t)) return false;
  }
  return true;
}

}  // namespace

std::vector<bool> ComputeCanonicalMask(const ExplanationCube& cube,
                                       const ExplanationRegistry& registry) {
  TSE_CHECK_EQ(cube.num_explanations(), registry.num_explanations());
  const size_t epsilon = cube.num_explanations();
  std::vector<bool> canonical(epsilon, true);

  // Bucket by hash; within a bucket, compare pairwise (buckets are tiny).
  const std::vector<uint64_t> hashes = HashAllSlices(cube);
  std::unordered_map<uint64_t, std::vector<ExplId>> buckets;
  buckets.reserve(epsilon);
  for (size_t e = 0; e < epsilon; ++e) {
    buckets[hashes[e]].push_back(static_cast<ExplId>(e));
  }

  for (auto& [hash, members] : buckets) {
    (void)hash;
    if (members.size() < 2) continue;
    // Members are in ascending id order; registry ids are assigned in
    // enumeration order, so lower order tends to come first, but we still
    // pick the representative explicitly: lowest order, then lowest id.
    std::vector<bool> claimed(members.size(), false);
    for (size_t i = 0; i < members.size(); ++i) {
      if (claimed[i]) continue;
      ExplId rep = members[i];
      std::vector<size_t> group{i};
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (claimed[j]) continue;
        if (SlicesEqual(cube, members[i], members[j])) {
          claimed[j] = true;
          group.push_back(j);
          const Explanation& cand = registry.explanation(members[j]);
          const Explanation& best = registry.explanation(rep);
          if (cand.order() < best.order() ||
              (cand.order() == best.order() && members[j] < rep)) {
            rep = members[j];
          }
        }
      }
      if (group.size() > 1) {
        for (size_t idx : group) {
          if (members[idx] != rep) {
            canonical[static_cast<size_t>(members[idx])] = false;
          }
        }
      }
    }
  }
  return canonical;
}

std::vector<bool> AndMasks(const std::vector<bool>& a,
                           const std::vector<bool>& b) {
  TSE_CHECK_EQ(a.size(), b.size());
  std::vector<bool> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
  return out;
}

}  // namespace tsexplain
