#ifndef CMP_HIST_HIST_KERNELS_H_
#define CMP_HIST_HIST_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "hist/bin_codes.h"

namespace cmp {

/// Attribute-major batch accumulation kernels over bin codes.
///
/// The record-major `HistBundle::Add` strides across every attribute's
/// histogram once PER RECORD — each step pays a binary search on the
/// grid plus a cold cache line in a different histogram. These kernels
/// invert the loop nest: the scan first routes a BATCH of records to a
/// sink, then accumulates the batch one attribute at a time, so each
/// inner loop is a tight, branchless sequence of byte-code loads and
/// integer adds against ONE histogram (which stays hot) and ONE code
/// column (read near-sequentially, since batch rids ascend within a
/// block). The per-record work drops from `attrs × (log2(intervals)
/// compares + a scattered 8-byte add)` to `attrs × (1-byte load + add)`.
///
/// All kernels are plain integer-count adds, so the accumulation order
/// is immaterial: a batched scan produces byte-for-byte the histograms
/// of the record-major scan, which is what lets the batched path live
/// under the bit-identical-trees contract (tests/test_hist_kernels.cc).
///
/// `batch_labels` is the batch's label column gathered once per batch
/// (indexed by batch position, not record id) so the per-attribute loops
/// do one random load per record instead of two.
///
/// The kernels are scalar on purpose: accumulation is bound by memory
/// traffic (one scattered increment per record and attribute), not by
/// arithmetic, and the SSE2/AVX2 tiers that once widened the code loads
/// measured 0.75-0.94x of these loops (DESIGN.md §4h). The loops read
/// exactly `codes[rids[i]]` and nothing past the last record.

/// Reusable per-shard scratch for the kernels: the gathered label and
/// X-row columns of the current batch. Reused across batches to keep
/// flush calls allocation-free.
struct KernelScratch {
  std::vector<ClassId> labels;
  std::vector<int32_t> xrows;
};

/// scratch_labels[i] = labels[rids[i]].
void GatherLabels(const ClassId* labels, const RecordId* rids, size_t n,
                  std::vector<ClassId>* out);

/// scratch_xrows[i] = xcodes[rids[i]] - x_lo (the LOCAL X row of a
/// bivariate bundle covering global X-intervals [x_lo, x_hi)).
void GatherXRows(const CodeView& xcodes, int x_lo, const RecordId* rids,
                 size_t n, std::vector<int32_t>* out);

/// counts[codes[rids[i]] * nc + batch_labels[i]] += 1 for every batch
/// position i. `counts` is a Histogram1D's row-major cell array.
void AccumulateHist1D(const CodeView& codes, const ClassId* batch_labels,
                      const RecordId* rids, size_t n, int nc,
                      int64_t* counts);

/// counts[(xrows[i] * ny + codes[rids[i]]) * nc + batch_labels[i]] += 1:
/// one Y attribute of a bivariate bundle, with the shared X rows
/// gathered once per batch by GatherXRows.
void AccumulateHist2D(const int32_t* xrows, const CodeView& codes,
                      const ClassId* batch_labels, const RecordId* rids,
                      size_t n, int ny, int nc, int64_t* counts);

}  // namespace cmp

#endif  // CMP_HIST_HIST_KERNELS_H_
