// SSE2 gini boundary scan (see gini.h). Two boundaries per iteration,
// one __m128d lane each; the class loop stays sequential inside the
// lanes so every lane executes exactly the scalar BoundaryGini op
// sequence (convert, div, mul, add, sub — elementwise, same order). SSE2
// is the x86-64 baseline and has no FMA, so no special compile flags are
// needed and nothing can contract mul+add and perturb the low bits.
// Together those properties make this scan bit-identical to the scalar
// reference, which the byte-identical-trees contract depends on.
//
// The 0/0 = NaN a one-sided boundary produces is masked to the scalar's
// 0.0 (Gini of an empty set) with cmp+andnot before the weighting.

#include "gini/gini.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstddef>

namespace cmp {

namespace {

// Lane k <- row (b + k), class c of the converted prefix matrix.
inline __m128d Lanes2(const double* p0, int c, int nc) {
  return _mm_set_pd(p0[nc + c], p0[c]);
}

}  // namespace

void ScanBoundaryGinisSse2(const int64_t* prefix, int num_boundaries,
                           int nc, const int64_t* totals, double* out) {
  // Convert the integer counts to doubles up front: every count is far
  // below 2^53, so the conversions — and any sums of converted counts —
  // are exact, and the arithmetic below sees the very values the scalar
  // path's int64 -> double casts produce.
  const size_t cells = static_cast<size_t>(num_boundaries) * nc;
  std::vector<double> dp(cells);
  for (size_t i = 0; i < cells; ++i) dp[i] = static_cast<double>(prefix[i]);
  std::vector<double> dt(static_cast<size_t>(nc));
  int64_t n = 0;
  for (int c = 0; c < nc; ++c) {
    n += totals[c];
    dt[c] = static_cast<double>(totals[c]);
  }
  if (n == 0) {  // SplitGini of an empty node is 0.
    for (int b = 0; b < num_boundaries; ++b) out[b] = 0.0;
    return;
  }
  const __m128d vn = _mm_set1_pd(static_cast<double>(n));
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128d vzero = _mm_setzero_pd();
  int b = 0;
  for (; b + 2 <= num_boundaries; b += 2) {
    const double* p0 = dp.data() + static_cast<size_t>(b) * nc;
    __m128d vnl = vzero;
    for (int c = 0; c < nc; ++c) {
      vnl = _mm_add_pd(vnl, Lanes2(p0, c, nc));
    }
    const __m128d vnr = _mm_sub_pd(vn, vnl);
    __m128d sl = vzero;
    __m128d sr = vzero;
    for (int c = 0; c < nc; ++c) {
      const __m128d x = Lanes2(p0, c, nc);
      const __m128d r = _mm_sub_pd(_mm_set1_pd(dt[c]), x);
      const __m128d pl = _mm_div_pd(x, vnl);
      const __m128d pr = _mm_div_pd(r, vnr);
      sl = _mm_add_pd(sl, _mm_mul_pd(pl, pl));
      sr = _mm_add_pd(sr, _mm_mul_pd(pr, pr));
    }
    __m128d gl = _mm_sub_pd(vone, sl);
    __m128d gr = _mm_sub_pd(vone, sr);
    gl = _mm_andnot_pd(_mm_cmpeq_pd(vnl, vzero), gl);
    gr = _mm_andnot_pd(_mm_cmpeq_pd(vnr, vzero), gr);
    const __m128d g = _mm_add_pd(_mm_mul_pd(_mm_div_pd(vnl, vn), gl),
                                 _mm_mul_pd(_mm_div_pd(vnr, vn), gr));
    _mm_storeu_pd(out + b, g);
  }
  const std::span<const int64_t> t(totals, static_cast<size_t>(nc));
  for (; b < num_boundaries; ++b) {
    out[b] = BoundaryGini(
        std::span<const int64_t>(prefix + static_cast<size_t>(b) * nc,
                                 static_cast<size_t>(nc)),
        t);
  }
}

}  // namespace cmp

#endif  // defined(__SSE2__)
