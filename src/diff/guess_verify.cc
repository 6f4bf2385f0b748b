#include "src/diff/guess_verify.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-9;

}  // namespace

size_t FirstRoundNeed(size_t epsilon, int m, int initial_guess) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_GE(initial_guess, 1);
  // The cap keeps guess + m in range: the initial guess comes from
  // requests and may be INT_MAX.
  return std::min(static_cast<size_t>(initial_guess), epsilon) +
         static_cast<size_t>(m);
}

TopExplanations GuessVerifyTopM(CascadingAnalysts& solver,
                                const std::vector<double>& gamma, int m,
                                const std::vector<bool>* selectable,
                                int initial_guess, GuessVerifyStats* stats) {
  TopCells top;
  top.Reset(FirstRoundNeed(gamma.size(), m, initial_guess));
  SelectTop(gamma, selectable, &top);
  return GuessVerifyFromSelection(solver, gamma, m, selectable,
                                  initial_guess, &top, stats);
}

TopExplanations GuessVerifyFromSelection(CascadingAnalysts& solver,
                                         const std::vector<double>& gamma,
                                         int m,
                                         const std::vector<bool>* selectable,
                                         int initial_guess, TopCells* top,
                                         GuessVerifyStats* stats) {
  const size_t epsilon = gamma.size();
  // chi: the selectable cells with positive score. A round needs only its
  // top (guess + m); |chi| is known once a round's selection does not
  // fill up.
  size_t guess =
      FirstRoundNeed(epsilon, m, initial_guess) - static_cast<size_t>(m);
  TSE_CHECK_EQ(top->need(), guess + static_cast<size_t>(m));
  size_t chi_size = SIZE_MAX;  // unknown
  GuessVerifyStats local_stats;
  std::vector<ExplId> candidates;
  for (;;) {
    if (++local_stats.iterations > 1) {
      top->Reset(guess + static_cast<size_t>(m));
      SelectTop(gamma, selectable, top);
    }
    if (top->size() < top->need()) {
      chi_size = top->size();
      guess = std::min(guess, chi_size);
    }
    if (guess == 0) {
      // No scoring candidates at all: empty result with zero Best.
      if (stats != nullptr) {
        stats->iterations = 1;
        stats->final_guess_size = 0;
        stats->exact_fallback = true;
      }
      TopExplanations empty;
      empty.best.assign(static_cast<size_t>(m) + 1, 0.0);
      return empty;
    }

    candidates.resize(guess);
    for (size_t i = 0; i < guess; ++i) candidates[i] = (*top)[i].id;
    TopExplanations result = solver.TopMRestricted(gamma, m, candidates);

    const bool covered_all = guess >= chi_size;
    bool verified = true;
    if (!covered_all) {
      // Eq. 12: for every split m' in-prefix / (m - m') out-of-prefix, the
      // out-of-prefix part is upper-bounded by the next (m - m') raw gammas.
      for (int m_prime = 0; m_prime < m && verified; ++m_prime) {
        double upper = result.best[static_cast<size_t>(m_prime)];
        for (int j = 1; j <= m - m_prime; ++j) {
          const size_t idx = guess + static_cast<size_t>(j) - 1;
          if (idx < top->size()) upper += (*top)[idx].gamma;
        }
        if (result.best[static_cast<size_t>(m)] < upper - kScoreEps) {
          verified = false;
        }
      }
    }

    if (verified || covered_all) {
      local_stats.final_guess_size = static_cast<int>(guess);
      local_stats.exact_fallback = covered_all;
      if (stats != nullptr) *stats = local_stats;
      return result;
    }
    // The next round clamps the doubled guess to |chi| once it is known.
    guess = std::min(guess * 2, epsilon);
  }
}

}  // namespace tsexplain
