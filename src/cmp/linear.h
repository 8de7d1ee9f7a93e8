#ifndef CMP_CMP_LINEAR_H_
#define CMP_CMP_LINEAR_H_

#include "hist/histogram2d.h"
#include "hist/quantiles.h"
#include "tree/split.h"

namespace cmp {

/// Result of a linear-combination split search over one histogram matrix.
struct LinearSplitResult {
  bool valid = false;
  /// Coefficients of a*x + b*y <= c (x = matrix X attribute, y = Y
  /// attribute, value space).
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  /// Three-way gini of the partition (under / above / crossed cells).
  double gini = 1.0;
};

/// Searches for the best splitting line over the matrix `m`, whose X
/// columns cover global intervals [x_lo, x_lo + m.x_intervals()) of
/// `gx` and whose Y rows cover all of `gy` (both attributes numeric).
///
/// Implements the intercept-walking greedy of the paper (Figure 12):
/// starting from the smallest intercepts, the x- or y-intercept is
/// repeatedly advanced to whichever boundary cut lowers
/// gini^D(S, line) = Nu/N gini(Su) + Na/N gini(Sa) + No/N gini(So)
/// more, where Su/Sa/So are the cells under, above and crossed by the
/// line. Both negative-slope (x/X0 + y/Y0 = 1) and positive-slope lines
/// (searched on the Y-mirrored matrix) are tried; the best is returned.
///
/// `max_grid`: the matrix is first coarsened so that neither axis exceeds
/// this many intervals (adjacent-interval merging), bounding the cost of
/// each line evaluation.
///
/// Each candidate line is counted in O(cx + cy) corner evaluations plus
/// O(cx * classes) adds over per-column prefix sums (cx, cy: coarse
/// cells per axis), not the O(cx * cy * classes) per-cell loop; lines
/// with a non-finite coefficient fall back to that loop.
LinearSplitResult FindBestLine(const HistogramMatrix& m,
                               const IntervalGrid& gx, int x_lo,
                               const IntervalGrid& gy, int max_grid);

/// FindBestLine with every candidate line counted by the per-cell loop:
/// the reference the column walk must match bit for bit (valid, a, b, c
/// and gini).
LinearSplitResult FindBestLineReference(const HistogramMatrix& m,
                                        const IntervalGrid& gx, int x_lo,
                                        const IntervalGrid& gy,
                                        int max_grid);

}  // namespace cmp

#endif  // CMP_CMP_LINEAR_H_
