#include "src/diff/guess_verify.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-9;

}  // namespace

TopExplanations GuessVerifyTopM(CascadingAnalysts& solver,
                                const std::vector<double>& gamma, int m,
                                const std::vector<bool>* selectable,
                                int initial_guess, GuessVerifyStats* stats) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_GE(initial_guess, 1);
  const size_t epsilon = gamma.size();
  auto by_gamma_desc = [&gamma](ExplId a, ExplId b) {
    const double ga = gamma[static_cast<size_t>(a)];
    const double gb = gamma[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return a < b;
  };

  // chi: the selectable cells with positive score. A round needs only its
  // top (guess + m) by by_gamma_desc; |chi| is known once a round's
  // selection does not fill up. The cap keeps guess + m in range: the
  // initial guess comes from requests and may be INT_MAX.
  size_t guess = std::min(static_cast<size_t>(initial_guess), epsilon);
  size_t chi_size = SIZE_MAX;  // unknown
  GuessVerifyStats local_stats;
  std::vector<ExplId> top;
  std::vector<ExplId> candidates;
  for (;;) {
    ++local_stats.iterations;
    // One ascending scan. Ids above `floor` (the need-th best gamma kept so
    // far; 0 stands for the gamma > 0 test) are buffered; a full buffer of
    // 2 * need is cut back to its best need. A later id is larger, so it
    // loses every gamma tie and must beat `floor` strictly.
    const size_t need = guess + static_cast<size_t>(m);
    auto keep_best = [&] {
      std::nth_element(top.begin(),
                       top.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                       top.end(), by_gamma_desc);
      top.resize(need);
      return gamma[static_cast<size_t>(top.back())];
    };
    top.clear();
    double floor = 0.0;
    for (size_t e = 0; e < epsilon; ++e) {
      if (!(gamma[e] > floor)) continue;
      if (selectable != nullptr && !(*selectable)[e]) continue;
      top.push_back(static_cast<ExplId>(e));
      if (top.size() == 2 * need) floor = keep_best();
    }
    if (top.size() > need) keep_best();
    std::sort(top.begin(), top.end(), by_gamma_desc);
    if (top.size() < need) {
      chi_size = top.size();
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

    candidates.assign(top.begin(),
                      top.begin() + static_cast<std::ptrdiff_t>(guess));
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
          if (idx < top.size()) {
            upper += gamma[static_cast<size_t>(top[idx])];
          }
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
