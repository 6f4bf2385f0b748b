// Unit tests for guess-and-verify (O1): must return EXACTLY the plain CA
// result (Eq. 12 is a sufficient optimality condition).

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/datagen/covid_sim.h"
#include "src/datagen/deaths_sim.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/sp500_sim.h"
#include "src/diff/guess_verify.h"

namespace tsexplain {
namespace {

Table MakeTable(int a_card, int b_card) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < a_card; ++a) {
    for (int b = 0; b < b_card; ++b) {
      table.AppendRow(0, {"a" + std::to_string(a), "b" + std::to_string(b)},
                      {1.0});
    }
  }
  return table;
}

TEST(GuessVerify, MatchesPlainCaOnRandomInstances) {
  const Table t = MakeTable(8, 6);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts plain(reg);
  CascadingAnalysts optimized(reg);
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 100.0);
    const TopExplanations expected = plain.TopM(gamma, 3);
    // Tiny initial guess to force several verification rounds.
    const TopExplanations actual =
        GuessVerifyTopM(optimized, gamma, 3, nullptr, /*initial_guess=*/2);
    EXPECT_NEAR(actual.TotalScore(), expected.TotalScore(), 1e-9)
        << "trial " << trial;
    EXPECT_EQ(actual.ids, expected.ids) << "trial " << trial;
  }
}

TEST(GuessVerify, HeavyTailTerminatesEarly) {
  // One dominant explanation and a sea of negligible ones: the first guess
  // must already verify.
  const Table t = MakeTable(20, 5);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations(), 0.001);
  gamma[0] = 1000.0;
  gamma[1] = 900.0;
  gamma[2] = 800.0;
  GuessVerifyStats stats;
  const TopExplanations top =
      GuessVerifyTopM(ca, gamma, 3, nullptr, 30, &stats);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_GT(top.TotalScore(), 0.0);
}

TEST(GuessVerify, UniformScoresForceGrowth) {
  // Near-uniform positive scores make Eq. 12 hard to satisfy with a tiny
  // prefix, forcing doubling rounds.
  const Table t = MakeTable(10, 6);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(7);
  std::vector<double> gamma(reg.num_explanations());
  for (auto& g : gamma) g = 10.0 + rng.Uniform(0.0, 0.01);
  GuessVerifyStats stats;
  const TopExplanations viaGv =
      GuessVerifyTopM(ca, gamma, 3, nullptr, /*initial_guess=*/2, &stats);
  EXPECT_GT(stats.iterations, 1);
  CascadingAnalysts plain(reg);
  EXPECT_NEAR(viaGv.TotalScore(), plain.TopM(gamma, 3).TotalScore(), 1e-9);
}

TEST(GuessVerify, RespectsSelectableMask) {
  const Table t = MakeTable(6, 4);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(3);
  std::vector<double> gamma(reg.num_explanations());
  for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
  std::vector<bool> mask(reg.num_explanations(), false);
  for (size_t e = 0; e < mask.size(); e += 2) mask[e] = true;

  CascadingAnalysts plain(reg);
  const TopExplanations expected = plain.TopM(gamma, 3, &mask);
  const TopExplanations actual = GuessVerifyTopM(ca, gamma, 3, &mask, 4);
  EXPECT_NEAR(actual.TotalScore(), expected.TotalScore(), 1e-9);
  for (ExplId id : actual.ids) {
    EXPECT_TRUE(mask[static_cast<size_t>(id)]);
  }
}

TEST(GuessVerify, AllZeroScoresReturnEmpty) {
  const Table t = MakeTable(4, 3);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  GuessVerifyStats stats;
  const TopExplanations top = GuessVerifyTopM(
      ca, std::vector<double>(reg.num_explanations(), 0.0), 3, nullptr, 30,
      &stats);
  EXPECT_TRUE(top.ids.empty());
  EXPECT_DOUBLE_EQ(top.TotalScore(), 0.0);
}

TEST(GuessVerify, GuessLargerThanCandidatesIsExact) {
  const Table t = MakeTable(3, 2);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations(), 1.0);
  GuessVerifyStats stats;
  GuessVerifyTopM(ca, gamma, 2, nullptr, 10000, &stats);
  EXPECT_TRUE(stats.exact_fallback);
  EXPECT_EQ(stats.iterations, 1);
}

// ---------------------------------------------------------------------
// O1 equivalence harness: guess-and-verify against vanilla CA, bit for bit.

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameTop(const TopExplanations& got, const TopExplanations& want,
                   const std::string& where) {
  EXPECT_EQ(got.ids, want.ids) << where;
  EXPECT_TRUE(SameBits(got.gammas, want.gammas)) << where;
  EXPECT_TRUE(SameBits(got.best, want.best)) << where;
}

// Random sparse relation over `num_attrs` attributes with 2-4 values each.
Table MakeRandomTable(Rng& rng, int num_attrs) {
  std::vector<std::string> names;
  for (int a = 0; a < num_attrs; ++a) names.push_back(std::string(1, 'A' + a));
  Table table(Schema("t", names, {"m"}));
  table.AddTimeBucket("0");
  std::vector<int64_t> cards;
  for (int a = 0; a < num_attrs; ++a) cards.push_back(rng.UniformInt(2, 4));
  const int64_t rows = rng.UniformInt(4, 40);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<std::string> dims;
    for (int a = 0; a < num_attrs; ++a) {
      dims.push_back("v" + std::to_string(rng.UniformInt(0, cards[a] - 1)));
    }
    table.AppendRow(0, dims, {1.0});
  }
  return table;
}

// Ties, zeros and negatives (small integers) or tie-free reals.
std::vector<double> RandomGammas(Rng& rng, size_t n, bool with_ties) {
  std::vector<double> gamma(n);
  for (double& g : gamma) {
    g = with_ties ? static_cast<double>(rng.UniformInt(-2, 5))
                  : rng.Uniform(-10.0, 100.0);
  }
  return gamma;
}

// The top `count` selectable positive cells in guess-and-verify's order.
std::vector<ExplId> TopPositive(const std::vector<double>& gamma,
                                const std::vector<bool>* mask, int count) {
  std::vector<ExplId> chi;
  for (size_t e = 0; e < gamma.size(); ++e) {
    if ((mask == nullptr || (*mask)[e]) && gamma[e] > 0.0) {
      chi.push_back(static_cast<ExplId>(e));
    }
  }
  SortByGammaDesc(gamma, &chi);
  chi.resize(std::min(chi.size(), static_cast<size_t>(count)));
  return chi;
}

std::vector<bool> MaskOf(const std::vector<ExplId>& ids, size_t n) {
  std::vector<bool> mask(n, false);
  for (ExplId id : ids) mask[static_cast<size_t>(id)] = true;
  return mask;
}

TEST(GuessVerifyEquivalence, RandomLattices) {
  Rng rng(2211);
  for (int trial = 0; trial < 300; ++trial) {
    const int num_attrs = static_cast<int>(rng.UniformInt(2, 4));
    const Table table = MakeRandomTable(rng, num_attrs);
    std::vector<AttrId> explain_by(static_cast<size_t>(num_attrs));
    for (int a = 0; a < num_attrs; ++a) explain_by[static_cast<size_t>(a)] = a;
    const int order =
        static_cast<int>(rng.UniformInt(1, std::min(3, num_attrs)));
    const auto reg = ExplanationRegistry::Build(table, explain_by, order);
    const size_t eps = reg.num_explanations();
    const bool with_ties = trial % 2 == 0;
    const std::vector<double> gamma = RandomGammas(rng, eps, with_ties);
    std::vector<bool> mask(eps);
    for (size_t e = 0; e < eps; ++e) mask[e] = rng.NextBool(0.7);
    const bool use_mask = rng.NextBool();
    const std::vector<bool>* selectable = use_mask ? &mask : nullptr;
    const int m = static_cast<int>(rng.UniformInt(1, 6));
    const std::string where = "trial " + std::to_string(trial) + " m " +
                              std::to_string(m) + " order " +
                              std::to_string(order);

    CascadingAnalysts vanilla(reg);
    CascadingAnalysts solver(reg);
    const TopExplanations expected = vanilla.TopM(gamma, m, selectable);

    // TopMRestricted(c) is TopM with selectable = c, bit for bit, for any c.
    std::vector<ExplId> subset;
    for (size_t e = 0; e < eps; ++e) {
      if (rng.NextBool(0.3)) subset.push_back(static_cast<ExplId>(e));
    }
    const std::vector<bool> subset_mask = MaskOf(subset, eps);
    ExpectSameTop(solver.TopMRestricted(gamma, m, subset),
                  vanilla.TopM(gamma, m, &subset_mask), where + " restricted");

    for (const int initial_guess : {1, 2, 30, INT_MAX}) {
      const std::string at = where + " guess " + std::to_string(initial_guess);
      GuessVerifyStats stats;
      const TopExplanations gv =
          GuessVerifyTopM(solver, gamma, m, selectable, initial_guess, &stats);
      // Exactly the restricted run on the prefix that verified...
      const std::vector<bool> prefix =
          MaskOf(TopPositive(gamma, selectable, stats.final_guess_size), eps);
      ExpectSameTop(gv, vanilla.TopM(gamma, m, &prefix), at + " prefix");
      // ...which reaches the vanilla optimum (Eq. 12 up to its 1e-9 slack).
      EXPECT_NEAR(gv.TotalScore(), expected.TotalScore(), 1e-9) << at;
      // Without score ties the optimal selection is unique, so it is the
      // vanilla one bit for bit.
      if (!with_ties) ExpectSameTop(gv, expected, at);
    }
  }
}

// Rows of `table` in its first `buckets` time buckets.
std::unique_ptr<Table> TimePrefix(const Table& table, size_t buckets) {
  auto prefix = std::make_unique<Table>(table.schema());
  for (size_t t = 0; t < buckets; ++t) {
    prefix->AddTimeBucket(table.time_labels()[t]);
  }
  const size_t num_dims = table.schema().num_dimensions();
  const size_t num_measures = table.schema().measure_names().size();
  std::vector<std::string> dims(num_dims);
  std::vector<double> measures(num_measures);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (static_cast<size_t>(table.time(row)) >= buckets) continue;
    for (size_t a = 0; a < num_dims; ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      dims[a] = table.dictionary(attr).ToString(table.dim(row, attr));
    }
    for (size_t k = 0; k < num_measures; ++k) {
      measures[k] = table.measure(row, static_cast<int>(k));
    }
    prefix->AppendRow(table.time(row), dims, measures);
  }
  return prefix;
}

// A "fast" engine's CA inputs (support filter on, sum of measure 0): GV
// must equal vanilla CA on every unit segment and on seeded random spans.
void ExpectGuessVerifyMatchesVanilla(const Table& table,
                                     const std::vector<AttrId>& explain_by,
                                     int order, const std::string& label) {
  const auto reg = ExplanationRegistry::Build(table, explain_by, order);
  const ExplanationCube cube(table, reg, AggregateFunction::kSum, 0);
  const std::vector<bool> active = ComputeSupportFilter(cube);
  const int n = static_cast<int>(cube.n());
  std::vector<std::pair<int, int>> segments;
  for (int a = 0; a + 1 < n; ++a) segments.emplace_back(a, a + 1);
  Rng rng(404);
  for (int s = 0; s < 24; ++s) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 2));
    segments.emplace_back(a, static_cast<int>(rng.UniformInt(a + 1, n - 1)));
  }
  CascadingAnalysts vanilla(reg);
  CascadingAnalysts solver(reg);
  std::vector<double> gamma(reg.num_explanations());
  size_t explained = 0;
  for (const auto& [a, b] : segments) {
    cube.ScoreAll(DiffMetricKind::kAbsoluteChange, static_cast<size_t>(a),
                  static_cast<size_t>(b), &active, &gamma);
    const TopExplanations expected = vanilla.TopM(gamma, 3, &active);
    ExpectSameTop(GuessVerifyTopM(solver, gamma, 3, &active), expected,
                  label + " segment " + std::to_string(a) + "-" +
                      std::to_string(b));
    explained += expected.ids.empty() ? 0 : 1;
  }
  EXPECT_GT(explained, segments.size() / 2) << label;
}

TEST(GuessVerifyEquivalence, CovidEngine) {
  const auto table = MakeCovidTable();
  ExpectGuessVerifyMatchesVanilla(*TimePrefix(*table, 60), {0}, 1, "covid");
}

TEST(GuessVerifyEquivalence, Sp500Engine) {
  const auto table = MakeSp500Table();
  ExpectGuessVerifyMatchesVanilla(*TimePrefix(*table, 60), {0, 1, 2}, 3,
                                  "sp500");
}

TEST(GuessVerifyEquivalence, LiquorPrefixEngine) {
  const auto table = MakeLiquorTable();
  ExpectGuessVerifyMatchesVanilla(*TimePrefix(*table, 20), {0, 1, 2, 3}, 3,
                                  "liquor");
}

TEST(GuessVerifyEquivalence, DeathsEngine) {
  const auto table = MakeDeathsTable();
  ExpectGuessVerifyMatchesVanilla(*table, {0, 1}, 2, "deaths");
}

}  // namespace
}  // namespace tsexplain
