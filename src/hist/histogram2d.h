#ifndef CMP_HIST_HISTOGRAM2D_H_
#define CMP_HIST_HISTOGRAM2D_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "hist/histogram1d.h"

namespace cmp {

/// Bivariate class histogram ("histogram matrix", Section 2.2 of the
/// paper): counts[x][y][c] = number of records whose X-attribute value
/// falls in X-interval x, whose Y-attribute value falls in Y-interval y,
/// and whose class is c. A node of CMP-B keeps N-1 such matrices, all
/// sharing the same X attribute.
class HistogramMatrix {
 public:
  HistogramMatrix() = default;
  HistogramMatrix(int x_intervals, int y_intervals, int num_classes)
      : nx_(x_intervals),
        ny_(y_intervals),
        nc_(num_classes),
        counts_(static_cast<size_t>(x_intervals) * y_intervals * num_classes,
                0) {}

  int x_intervals() const { return nx_; }
  int y_intervals() const { return ny_; }
  int num_classes() const { return nc_; }

  void Add(int x, int y, ClassId c, int64_t delta = 1) {
    counts_[Index(x, y, c)] += delta;
  }

  int64_t count(int x, int y, ClassId c) const {
    return counts_[Index(x, y, c)];
  }

  /// Class counts of one (x, y) cell.
  const int64_t* cell(int x, int y) const {
    return counts_.data() + Index(x, y, 0);
  }

  /// Marginal class histogram along X, restricted to X-intervals in
  /// [x_lo, x_hi): result interval i corresponds to X-interval x_lo + i.
  Histogram1D MarginalX(int x_lo, int x_hi) const;
  Histogram1D MarginalX() const { return MarginalX(0, nx_); }

  /// Marginal class histogram along Y, restricted to X-intervals in
  /// [x_lo, x_hi). This is how CMP-B obtains a child's Y-attribute
  /// histogram from the parent's matrix after an X split.
  Histogram1D MarginalY(int x_lo, int x_hi) const;
  Histogram1D MarginalY() const { return MarginalY(0, nx_); }

  /// Marginals restricted along the Y axis instead: the X histogram (and
  /// the Y histogram) of the records whose Y row is in [y_lo, y_hi).
  /// predictSplit uses these to compute a child's exact X/Y ginis after
  /// a split on the Y attribute (paper Figure 7).
  Histogram1D MarginalXByYRange(int y_lo, int y_hi) const;
  Histogram1D MarginalYByYRange(int y_lo, int y_hi) const;

  /// Same, for a categorical Y split: rows with mask[y] != want are
  /// excluded.
  Histogram1D MarginalXByYMask(const std::vector<uint8_t>& mask,
                               uint8_t want) const;

  /// Per-class totals of the whole matrix.
  std::vector<int64_t> ClassTotals() const;
  int64_t Total() const;

  /// Adds every cell of `other` (same shape) into this matrix.
  void Merge(const HistogramMatrix& other);

  /// Mutable row-major cell array for the attribute-major batch kernels
  /// in hist/hist_kernels.h.
  int64_t* data() { return counts_.data(); }
  const int64_t* data() const { return counts_.data(); }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(counts_.size()) * sizeof(int64_t);
  }

 private:
  size_t Index(int x, int y, ClassId c) const {
    return (static_cast<size_t>(x) * ny_ + y) * nc_ + c;
  }

  int nx_ = 0;
  int ny_ = 0;
  int nc_ = 0;
  std::vector<int64_t> counts_;
};

}  // namespace cmp

#endif  // CMP_HIST_HISTOGRAM2D_H_
