// Least-squares line fitting and piecewise-linear approximation errors.
//
// These are the substrate for the explanation-agnostic segmentation
// baselines (Keogh et al. [21]): Bottom-Up and the optimal PLA score a
// candidate segment by how well a straight line approximates it.

#ifndef TSEXPLAIN_TS_LINEAR_FIT_H_
#define TSEXPLAIN_TS_LINEAR_FIT_H_

#include <cstddef>
#include <vector>

namespace tsexplain {

/// y = slope * x + intercept fitted over x = begin..end (inclusive).
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Sum of squared residuals of the fit.
  double sse = 0.0;
};

/// Least-squares fit over values[begin..end] (inclusive, x = index).
/// Requires begin <= end < values.size(). A single point fits exactly.
LineFit FitLine(const std::vector<double>& values, size_t begin, size_t end);

/// Sum of squared residuals of the least-squares line over [begin, end].
double SegmentSse(const std::vector<double>& values, size_t begin, size_t end);

/// Sum of squared residuals of linear *interpolation* (line through the two
/// endpoints) over [begin, end]. Keogh's survey uses either; interpolation
/// is cheaper and is what the Bottom-Up pseudo-code assumes.
double InterpolationSse(const std::vector<double>& values, size_t begin,
                        size_t end);

/// Incremental SSE oracle: precomputes prefix sums so the least-squares SSE
/// of any segment is O(1). Used by the O(n^2 K) optimal PLA and by
/// property tests that sweep all segments.
class SseOracle {
 public:
  explicit SseOracle(const std::vector<double>& values);

  /// Least-squares SSE over [begin, end] inclusive.
  double Sse(size_t begin, size_t end) const;

  size_t size() const { return n_; }

 private:
  size_t n_;
  // Prefix sums of x, x^2, y, y^2, x*y (x = global index).
  std::vector<double> sx_, sxx_, sy_, syy_, sxy_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_TS_LINEAR_FIT_H_
