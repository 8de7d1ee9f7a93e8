#include "gini/gini.h"

namespace cmp {

double Gini(std::span<const int64_t> class_counts) {
  int64_t n = 0;
  for (int64_t c : class_counts) n += c;
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (int64_t c : class_counts) {
    const double p = static_cast<double>(c) / static_cast<double>(n);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

double SplitGini(std::span<const int64_t> left_counts,
                 std::span<const int64_t> right_counts) {
  int64_t nl = 0;
  int64_t nr = 0;
  for (int64_t c : left_counts) nl += c;
  for (int64_t c : right_counts) nr += c;
  const int64_t n = nl + nr;
  if (n == 0) return 0.0;
  return (static_cast<double>(nl) / n) * Gini(left_counts) +
         (static_cast<double>(nr) / n) * Gini(right_counts);
}

double SplitGini3(std::span<const int64_t> a, std::span<const int64_t> b,
                  std::span<const int64_t> c) {
  int64_t na = 0;
  int64_t nb = 0;
  int64_t nc = 0;
  for (int64_t v : a) na += v;
  for (int64_t v : b) nb += v;
  for (int64_t v : c) nc += v;
  const int64_t n = na + nb + nc;
  if (n == 0) return 0.0;
  return (static_cast<double>(na) / n) * Gini(a) +
         (static_cast<double>(nb) / n) * Gini(b) +
         (static_cast<double>(nc) / n) * Gini(c);
}

double BoundaryGini(std::span<const int64_t> below,
                    std::span<const int64_t> totals) {
  std::vector<int64_t> above(totals.size());
  for (size_t i = 0; i < totals.size(); ++i) above[i] = totals[i] - below[i];
  return SplitGini(below, above);
}

// Literally BoundaryGini per row, so the scan's reference semantics are
// the function the golden fixtures were built on — not a
// reimplementation that could drift by an IEEE op.
void ScanBoundaryGinisScalar(const int64_t* prefix, int num_boundaries,
                             int nc, const int64_t* totals, double* out) {
  const std::span<const int64_t> t(totals, static_cast<size_t>(nc));
  for (int b = 0; b < num_boundaries; ++b) {
    out[b] = BoundaryGini(
        std::span<const int64_t>(prefix + static_cast<size_t>(b) * nc,
                                 static_cast<size_t>(nc)),
        t);
  }
}

void ScanBoundaryGinis(const int64_t* prefix, int num_boundaries, int nc,
                       const int64_t* totals, double* out) {
  if (num_boundaries <= 0) return;
#if defined(__SSE2__)
  ScanBoundaryGinisSse2(prefix, num_boundaries, nc, totals, out);
#else
  ScanBoundaryGinisScalar(prefix, num_boundaries, nc, totals, out);
#endif
}

}  // namespace cmp
