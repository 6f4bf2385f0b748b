// Guess-and-verify optimization (O1, paper section 5.3.1).
//
// Instead of handing all epsilon candidate explanations to the Cascading
// Analysts algorithm, sort them by gamma descending, run CA restricted to
// the top m-bar candidates, and verify optimality with the sufficient
// condition of Eq. 12:
//
//   Best[m] >= Best[m'] + sum_{j=1..m-m'} gamma(E_{r_{m-bar+j}})
//                                         for all 0 <= m' < m
//
// i.e. any solution using m' explanations from the prefix plus (m - m')
// from outside is upper-bounded by the right-hand side. On failure the
// prefix doubles (m-bar <- 2 m-bar) and the process repeats; when m-bar
// reaches epsilon the run is exact by construction.

#ifndef TSEXPLAIN_DIFF_GUESS_VERIFY_H_
#define TSEXPLAIN_DIFF_GUESS_VERIFY_H_

#include <vector>

#include "src/diff/cascading_analysts.h"
#include "src/diff/top_cells.h"

namespace tsexplain {

/// Default initial prefix size (paper: "when m = 3, we initialize
/// m-bar = 30").
inline constexpr int kDefaultInitialGuess = 30;

/// Statistics from one guess-and-verify run (benchmark instrumentation).
struct GuessVerifyStats {
  int iterations = 0;        // number of guess rounds
  int final_guess_size = 0;  // m-bar that passed verification
  bool exact_fallback = false;  // true if m-bar grew to epsilon
};

/// Computes the same TopExplanations as CascadingAnalysts::TopM but via
/// guess-and-verify. `selectable` narrows the candidate pool (support
/// filter); nullptr means all candidates. Results are guaranteed identical
/// to the unoptimized run (the verification condition is sufficient for
/// optimality).
TopExplanations GuessVerifyTopM(CascadingAnalysts& solver,
                                const std::vector<double>& gamma, int m,
                                const std::vector<bool>* selectable = nullptr,
                                int initial_guess = kDefaultInitialGuess,
                                GuessVerifyStats* stats = nullptr);

/// The first round's selection size: the initial guess (at most epsilon)
/// plus m.
size_t FirstRoundNeed(size_t epsilon, int m, int initial_guess);

/// GuessVerifyTopM with its first round's selection already made: `top`
/// holds the best FirstRoundNeed(gamma.size(), m, initial_guess)
/// selectable cells of `gamma` (a finished TopCells, e.g. filled by
/// ExplanationCube::ScoreSelect while it scored). Later rounds reselect
/// into `top` with SelectTop.
TopExplanations GuessVerifyFromSelection(CascadingAnalysts& solver,
                                         const std::vector<double>& gamma,
                                         int m,
                                         const std::vector<bool>* selectable,
                                         int initial_guess, TopCells* top,
                                         GuessVerifyStats* stats = nullptr);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_GUESS_VERIFY_H_
