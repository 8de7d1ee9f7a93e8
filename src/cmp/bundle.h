#ifndef CMP_CMP_BUNDLE_H_
#define CMP_CMP_BUNDLE_H_

#include <cassert>
#include <vector>

#include "common/dataset.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"
#include "hist/hist_kernels.h"
#include "hist/histogram1d.h"
#include "hist/histogram2d.h"

namespace cmp {

/// The class-histogram state one CMP node accumulates during a scan.
///
/// CMP-S keeps one 1-D histogram per attribute (interval rows for numeric
/// attributes, value rows for categorical ones).
///
/// CMP-B/CMP keep one bivariate HistogramMatrix per attribute other than
/// the designated X-axis attribute `x_attr` (all matrices of a node share
/// the same X axis, chosen by predictSplit). The X rows of a bundle may
/// cover only a sub-range [x_lo, x_hi) of the global grid: bundles of
/// children created by an X split are sub-matrices of the parent's
/// matrices, which is what lets CMP-B grow several levels per scan.
class HistBundle {
 public:
  HistBundle() = default;

  /// Creates an empty univariate (CMP-S) bundle over the global grids.
  static HistBundle MakeUnivariate(const Schema& schema,
                                   const std::vector<IntervalGrid>& grids);

  /// Creates an empty bivariate bundle with the given X-axis attribute
  /// (must be numeric) covering X-intervals [x_lo, x_hi) of the global
  /// grid.
  static HistBundle MakeBivariate(const Schema& schema,
                                  const std::vector<IntervalGrid>& grids,
                                  AttrId x_attr, int x_lo, int x_hi);

  /// Derives a child bundle after a split on the X axis: the child covers
  /// global X-intervals [x_lo, x_hi); columns in [full_lo, full_hi) are
  /// copied from this bundle, the rest start at zero (partial alive
  /// columns are filled later by buffer flushes). Only valid for
  /// bivariate bundles.
  HistBundle DeriveXRange(int x_lo, int x_hi, int full_lo, int full_hi) const;

  bool bivariate() const { return bivariate_; }
  AttrId x_attr() const { return x_attr_; }
  int x_lo() const { return x_lo_; }
  int x_hi() const { return x_hi_; }

  /// Adds record `r` of `ds` to every histogram of the bundle. The
  /// record's X interval must lie inside [x_lo, x_hi) for bivariate
  /// bundles. `DS` is any record store exposing `numeric(a, r)`,
  /// `categorical(a, r)` and `label(r)` — the in-memory Dataset, or
  /// the block/stash stores of the out-of-core training path.
  template <class DS>
  void Add(const DS& ds, const std::vector<IntervalGrid>& grids, RecordId r) {
    const Schema& schema = *schema_;
    const ClassId label = ds.label(r);
    if (!bivariate_) {
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        const int row = schema.is_numeric(a)
                            ? grids[a].IntervalOf(ds.numeric(a, r))
                            : ds.categorical(a, r);
        hists_[a].Add(row, label);
      }
      return;
    }
    const int gx = grids[x_attr_].IntervalOf(ds.numeric(x_attr_, r));
    assert(gx >= x_lo_ && gx < x_hi_);
    const int x = gx - x_lo_;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (a == x_attr_) continue;
      const int y = schema.is_numeric(a)
                        ? grids[a].IntervalOf(ds.numeric(a, r))
                        : ds.categorical(a, r);
      matrices_[a].Add(x, y, label);
    }
  }

  /// Record-major add through the bin-code cache: same effect as Add but
  /// the interval index is a 1-2 byte load instead of a binary search.
  /// Used where records arrive one at a time with interleaved routing
  /// (pending-buffer flushes), where batching cannot help.
  void AddCoded(const BinCodeCache& codes, RecordId r) {
    const Schema& schema = *schema_;
    const ClassId label = codes.label(r);
    if (!bivariate_) {
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        hists_[a].Add(codes.code(a, r), label);
      }
      return;
    }
    const int gx = codes.code(x_attr_, r);
    assert(gx >= x_lo_ && gx < x_hi_);
    const int x = gx - x_lo_;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (a == x_attr_) continue;
      matrices_[a].Add(x, codes.code(a, r), label);
    }
  }

  /// Attribute-major batch accumulation: adds the `n` records of `rids`
  /// to every histogram of the bundle using the hist/hist_kernels.h
  /// kernels — the batch's labels (and X rows, for bivariate bundles)
  /// are gathered once into `scratch`, then each attribute's histogram
  /// is filled by one tight loop over the batch. Byte-for-byte the same
  /// counts as calling Add record by record.
  void AccumulateBatch(const BinCodeCache& codes, const RecordId* rids,
                       size_t n, KernelScratch* scratch);

  /// The 1-D class histogram of attribute `a`:
  ///  - univariate: the stored histogram (numeric rows are global
  ///    intervals);
  ///  - bivariate, a == x_attr: the X marginal (rows are the LOCAL
  ///    intervals x_lo..x_hi-1);
  ///  - bivariate, a != x_attr: the Y marginal of matrix `a` (rows are
  ///    global intervals / categorical values).
  Histogram1D HistFor(AttrId a) const;

  /// Bivariate only: the matrix pairing X with attribute `a` (a !=
  /// x_attr).
  const HistogramMatrix& matrix(AttrId a) const { return matrices_[a]; }

  /// Raw per-attribute storage, exposed for the distributed-training
  /// wire layer (io/wire.cc), which ships and merges histogram cells
  /// directly. Univariate bundles populate hists(), bivariate ones
  /// matrices(); the other vector is empty.
  std::vector<Histogram1D>& hists() { return hists_; }
  const std::vector<Histogram1D>& hists() const { return hists_; }
  std::vector<HistogramMatrix>& matrices() { return matrices_; }
  const std::vector<HistogramMatrix>& matrices() const { return matrices_; }

  /// Adds every histogram of `other` into this bundle. Both bundles must
  /// have identical shape (same variant, X attribute and X range).
  void MergeSameShape(const HistBundle& other);

  /// An empty bundle of this bundle's exact shape (variant, X attribute,
  /// X range, histogram/matrix dimensions) with all counts zero. Parallel
  /// scans accumulate into per-shard clones and MergeSameShape them back
  /// in deterministic order.
  HistBundle CloneEmptyShape() const;

  /// Per-class record counts of the whole bundle.
  std::vector<int64_t> ClassTotals() const;

  int64_t MemoryBytes() const;

 private:
  bool bivariate_ = false;
  AttrId x_attr_ = kInvalidAttr;
  int x_lo_ = 0;
  int x_hi_ = 0;
  const Schema* schema_ = nullptr;
  std::vector<Histogram1D> hists_;         // univariate
  std::vector<HistogramMatrix> matrices_;  // bivariate, indexed by attr
};

}  // namespace cmp

#endif  // CMP_CMP_BUNDLE_H_
