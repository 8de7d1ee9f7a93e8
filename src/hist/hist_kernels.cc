#include "hist/hist_kernels.h"

namespace cmp {

namespace {

// The width template moves the u8/u16 branch out of the inner loops; the
// nc == 2 specialization strength-reduces the row multiply to a shift
// (binary classification is the common case in the paper's workloads).
template <typename Code>
void Accum1D(const Code* codes, const ClassId* batch_labels,
             const RecordId* rids, size_t n, int nc, int64_t* counts) {
  if (nc == 2) {
    for (size_t i = 0; i < n; ++i) {
      counts[(static_cast<size_t>(codes[rids[i]]) << 1) + batch_labels[i]]++;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    counts[static_cast<size_t>(codes[rids[i]]) * nc + batch_labels[i]]++;
  }
}

template <typename Code>
void Accum2D(const int32_t* xrows, const Code* codes,
             const ClassId* batch_labels, const RecordId* rids, size_t n,
             int ny, int nc, int64_t* counts) {
  if (nc == 2) {
    for (size_t i = 0; i < n; ++i) {
      const size_t cell =
          static_cast<size_t>(xrows[i]) * ny + codes[rids[i]];
      counts[(cell << 1) + batch_labels[i]]++;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t cell = static_cast<size_t>(xrows[i]) * ny + codes[rids[i]];
    counts[cell * nc + batch_labels[i]]++;
  }
}

template <typename Code>
void GatherXRowsOf(const Code* codes, int x_lo, const RecordId* rids,
                   size_t n, int32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int32_t>(codes[rids[i]]) - x_lo;
  }
}

}  // namespace

void GatherLabels(const ClassId* labels, const RecordId* rids, size_t n,
                  std::vector<ClassId>* out) {
  out->resize(n);
  ClassId* dst = out->data();
  for (size_t i = 0; i < n; ++i) dst[i] = labels[rids[i]];
}

void GatherXRows(const CodeView& xcodes, int x_lo, const RecordId* rids,
                 size_t n, std::vector<int32_t>* out) {
  out->resize(n);
  if (xcodes.u8 != nullptr) {
    GatherXRowsOf(xcodes.u8, x_lo, rids, n, out->data());
  } else {
    GatherXRowsOf(xcodes.u16, x_lo, rids, n, out->data());
  }
}

void AccumulateHist1D(const CodeView& codes, const ClassId* batch_labels,
                      const RecordId* rids, size_t n, int nc,
                      int64_t* counts) {
  if (codes.u8 != nullptr) {
    Accum1D(codes.u8, batch_labels, rids, n, nc, counts);
  } else {
    Accum1D(codes.u16, batch_labels, rids, n, nc, counts);
  }
}

void AccumulateHist2D(const int32_t* xrows, const CodeView& codes,
                      const ClassId* batch_labels, const RecordId* rids,
                      size_t n, int ny, int nc, int64_t* counts) {
  if (codes.u8 != nullptr) {
    Accum2D(xrows, codes.u8, batch_labels, rids, n, ny, nc, counts);
  } else {
    Accum2D(xrows, codes.u16, batch_labels, rids, n, ny, nc, counts);
  }
}

}  // namespace cmp
