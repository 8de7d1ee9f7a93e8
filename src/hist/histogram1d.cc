#include "hist/histogram1d.h"

#include <cassert>

namespace cmp {

int64_t Histogram1D::IntervalTotal(int i) const {
  int64_t total = 0;
  const int64_t* r = row(i);
  for (int c = 0; c < num_classes_; ++c) total += r[c];
  return total;
}

std::vector<int64_t> Histogram1D::ClassTotals() const {
  std::vector<int64_t> totals(num_classes_, 0);
  for (int i = 0; i < num_intervals_; ++i) {
    const int64_t* r = row(i);
    for (int c = 0; c < num_classes_; ++c) totals[c] += r[c];
  }
  return totals;
}

int64_t Histogram1D::Total() const {
  int64_t total = 0;
  for (int64_t v : counts_) total += v;
  return total;
}

void Histogram1D::Merge(const Histogram1D& other) {
  assert(num_intervals_ == other.num_intervals_ &&
         num_classes_ == other.num_classes_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

std::vector<int64_t> Histogram1D::PrefixBefore(int i) const {
  std::vector<int64_t> prefix(num_classes_, 0);
  for (int j = 0; j < i; ++j) {
    const int64_t* r = row(j);
    for (int c = 0; c < num_classes_; ++c) prefix[c] += r[c];
  }
  return prefix;
}

}  // namespace cmp
