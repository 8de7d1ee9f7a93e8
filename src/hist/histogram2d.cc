#include "hist/histogram2d.h"

#include <cassert>

namespace cmp {

Histogram1D HistogramMatrix::MarginalX(int x_lo, int x_hi) const {
  assert(0 <= x_lo && x_lo <= x_hi && x_hi <= nx_);
  Histogram1D out(x_hi - x_lo, nc_);
  for (int x = x_lo; x < x_hi; ++x) {
    for (int y = 0; y < ny_; ++y) {
      const int64_t* c = cell(x, y);
      for (int k = 0; k < nc_; ++k) {
        if (c[k] != 0) out.Add(x - x_lo, k, c[k]);
      }
    }
  }
  return out;
}

Histogram1D HistogramMatrix::MarginalY(int x_lo, int x_hi) const {
  assert(0 <= x_lo && x_lo <= x_hi && x_hi <= nx_);
  Histogram1D out(ny_, nc_);
  for (int x = x_lo; x < x_hi; ++x) {
    for (int y = 0; y < ny_; ++y) {
      const int64_t* c = cell(x, y);
      for (int k = 0; k < nc_; ++k) {
        if (c[k] != 0) out.Add(y, k, c[k]);
      }
    }
  }
  return out;
}

Histogram1D HistogramMatrix::MarginalXByYRange(int y_lo, int y_hi) const {
  assert(0 <= y_lo && y_lo <= y_hi && y_hi <= ny_);
  Histogram1D out(nx_, nc_);
  for (int x = 0; x < nx_; ++x) {
    for (int y = y_lo; y < y_hi; ++y) {
      const int64_t* c = cell(x, y);
      for (int k = 0; k < nc_; ++k) {
        if (c[k] != 0) out.Add(x, k, c[k]);
      }
    }
  }
  return out;
}

Histogram1D HistogramMatrix::MarginalYByYRange(int y_lo, int y_hi) const {
  assert(0 <= y_lo && y_lo <= y_hi && y_hi <= ny_);
  Histogram1D out(y_hi - y_lo, nc_);
  for (int x = 0; x < nx_; ++x) {
    for (int y = y_lo; y < y_hi; ++y) {
      const int64_t* c = cell(x, y);
      for (int k = 0; k < nc_; ++k) {
        if (c[k] != 0) out.Add(y - y_lo, k, c[k]);
      }
    }
  }
  return out;
}

Histogram1D HistogramMatrix::MarginalXByYMask(
    const std::vector<uint8_t>& mask, uint8_t want) const {
  Histogram1D out(nx_, nc_);
  for (int x = 0; x < nx_; ++x) {
    for (int y = 0; y < ny_; ++y) {
      const uint8_t bit =
          y < static_cast<int>(mask.size()) ? mask[y] : 0;
      if (bit != want) continue;
      const int64_t* c = cell(x, y);
      for (int k = 0; k < nc_; ++k) {
        if (c[k] != 0) out.Add(x, k, c[k]);
      }
    }
  }
  return out;
}

std::vector<int64_t> HistogramMatrix::ClassTotals() const {
  std::vector<int64_t> totals(nc_, 0);
  for (size_t i = 0; i < counts_.size(); ++i) {
    totals[i % nc_] += counts_[i];
  }
  return totals;
}

int64_t HistogramMatrix::Total() const {
  int64_t total = 0;
  for (int64_t v : counts_) total += v;
  return total;
}

void HistogramMatrix::Merge(const HistogramMatrix& other) {
  assert(nx_ == other.nx_ && ny_ == other.ny_ && nc_ == other.nc_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

}  // namespace cmp
