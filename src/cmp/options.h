#ifndef CMP_CMP_OPTIONS_H_
#define CMP_CMP_OPTIONS_H_

#include "hist/grids.h"
#include "tree/builder.h"

namespace cmp {

/// Which member of the CMP family to run (Section 2 of the paper).
enum class CmpVariant {
  /// Single-variable histograms + deferred exact splits.
  kS,
  /// kS + bivariate histogram matrices + split prediction (multiple
  /// levels per scan).
  kB,
  /// kB + linear-combination splits a*x + b*y <= c.
  kFull,
};

/// Options of the CMP family builders.
struct CmpOptions {
  BuilderOptions base;
  CmpVariant variant = CmpVariant::kFull;
  /// Intervals per numeric attribute ("our experiments divide an
  /// attribute domain into 100 to 120 intervals").
  int intervals = 100;
  /// How the interval grid is built: equal-depth quantiling (the paper's
  /// choice) or equal-width ranges.
  Discretization discretization = Discretization::kEqualDepth;
  /// Maximum number of alive intervals kept per split (N in the paper;
  /// "in most cases, limiting N ... to at most 2, is enough").
  int max_alive = 2;
  /// Linear splits are only searched when the best univariate gini is
  /// above this threshold (the paper's "already lower than a certain
  /// threshold" heuristic).
  double linear_skip_gini = 0.1;
  /// A linear split is adopted when its gini is at least this fraction
  /// smaller than the best univariate gini ("say 20% smaller").
  double linear_gain = 0.2;
  /// The intercept walk runs on a matrix coarsened to at most this many
  /// intervals per axis (implementation knob; the full grid would make
  /// each line evaluation quadratically more expensive without changing
  /// which relationships are detected).
  int linear_grid = 32;
  /// Build the pass-invariant bin-code cache after grid construction and
  /// accumulate histograms from the 1-2 byte codes with attribute-major
  /// batch kernels (hist/bin_codes.h, hist/hist_kernels.h). Off falls
  /// back to the record-major IntervalOf path; the tree is byte-identical
  /// either way. The cache also disables itself when an attribute needs
  /// more than 16 bits per code.
  bool bin_code_cache = true;
  /// Shard count for parallel scan passes. 0 = auto: the pool's
  /// parallelism, additionally capped at the hardware thread count so an
  /// oversubscribed pool on a small machine does not pay mirror-merge
  /// overhead for shards that cannot run concurrently. The tree is
  /// byte-identical for every value.
  int scan_shards = 0;
  /// Extension beyond the paper (addressing its Section 2.3 limitation):
  /// when true, the full CMP variant additionally builds ALL N(N-1)/2
  /// coarse pairwise matrices during the initial pass and may adopt a
  /// linear split at the root between a pair the regular matrices (which
  /// share one X axis) cannot see.
  bool all_pairs_root = false;
};

}  // namespace cmp

#endif  // CMP_CMP_OPTIONS_H_
