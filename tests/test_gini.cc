#include "gini/gini.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cmp {
namespace {

TEST(Gini, EmptySetIsZero) {
  const std::vector<int64_t> counts;
  EXPECT_DOUBLE_EQ(Gini(counts), 0.0);
}

TEST(Gini, PureSetIsZero) {
  const std::vector<int64_t> counts = {10, 0, 0};
  EXPECT_DOUBLE_EQ(Gini(counts), 0.0);
}

TEST(Gini, TwoClassBalanced) {
  const std::vector<int64_t> counts = {5, 5};
  EXPECT_DOUBLE_EQ(Gini(counts), 0.5);
}

TEST(Gini, ThreeClassUniformIsTwoThirds) {
  const std::vector<int64_t> counts = {4, 4, 4};
  EXPECT_NEAR(Gini(counts), 2.0 / 3.0, 1e-12);
}

TEST(Gini, MatchesHandComputation) {
  // p = (0.7, 0.3): gini = 1 - 0.49 - 0.09 = 0.42.
  const std::vector<int64_t> counts = {7, 3};
  EXPECT_NEAR(Gini(counts), 0.42, 1e-12);
}

TEST(SplitGini, WeightedAverageOfSides) {
  const std::vector<int64_t> left = {4, 0};   // pure, gini 0
  const std::vector<int64_t> right = {3, 3};  // gini 0.5
  // 4/10 * 0 + 6/10 * 0.5 = 0.3.
  EXPECT_NEAR(SplitGini(left, right), 0.3, 1e-12);
}

TEST(SplitGini, PerfectSplitIsZero) {
  const std::vector<int64_t> left = {5, 0};
  const std::vector<int64_t> right = {0, 7};
  EXPECT_DOUBLE_EQ(SplitGini(left, right), 0.0);
}

TEST(SplitGini, EmptySideEqualsPlainGini) {
  const std::vector<int64_t> left = {0, 0};
  const std::vector<int64_t> right = {6, 2};
  EXPECT_NEAR(SplitGini(left, right), Gini(right), 1e-12);
}

TEST(SplitGini3, ReducesToTwoWayWhenThirdEmpty) {
  const std::vector<int64_t> a = {4, 1};
  const std::vector<int64_t> b = {2, 5};
  const std::vector<int64_t> empty = {0, 0};
  EXPECT_NEAR(SplitGini3(a, b, empty), SplitGini(a, b), 1e-12);
}

TEST(SplitGini3, ThreeWayWeighted) {
  const std::vector<int64_t> a = {2, 0};
  const std::vector<int64_t> b = {0, 2};
  const std::vector<int64_t> c = {1, 1};
  // 2/6*0 + 2/6*0 + 2/6*0.5.
  EXPECT_NEAR(SplitGini3(a, b, c), 1.0 / 6.0, 1e-12);
}

TEST(BoundaryGini, EqualsSplitGiniOfComplement) {
  const std::vector<int64_t> below = {3, 1};
  const std::vector<int64_t> totals = {5, 6};
  const std::vector<int64_t> above = {2, 5};
  EXPECT_NEAR(BoundaryGini(below, totals), SplitGini(below, above), 1e-12);
}

TEST(BoundaryGini, LoanExampleFromPaper) {
  // Figure 1: split (age < 25) separates 2 No-records from the rest
  // {1 No, 3 Yes}: gini^D = 2/6*0 + 4/6*(1 - (1/4)^2 - (3/4)^2) = 0.25.
  const std::vector<int64_t> below = {2, 0};  // {No, Yes} below age 25
  const std::vector<int64_t> totals = {3, 3};
  EXPECT_NEAR(BoundaryGini(below, totals), 0.25, 1e-12);
}

// ---------------------------------------------------------------------
// ScanBoundaryGinis: the vectorized boundary scan must be BIT-identical
// to calling BoundaryGini per row — same doubles, not merely close —
// because the split argmin (and through it the golden trees) rides on
// exact comparisons of these values. Both scans this binary carries are
// driven directly, and the public entry point is checked separately (it
// is one of them, picked at compile time).

using ScanFn = void (*)(const int64_t* prefix, int num_boundaries, int nc,
                        const int64_t* totals, double* out);

// Every scan this binary carries, name + function.
std::vector<std::pair<std::string, ScanFn>> ScanTiers() {
  std::vector<std::pair<std::string, ScanFn>> tiers;
  tiers.emplace_back("scalar", ScanBoundaryGinisScalar);
#if defined(__SSE2__)
  tiers.emplace_back("sse2", ScanBoundaryGinisSse2);
#endif
  return tiers;
}

// The scalar reference: BoundaryGini on every prefix row.
std::vector<double> NaiveScan(const std::vector<int64_t>& prefix, int nb,
                              int nc, const std::vector<int64_t>& totals) {
  std::vector<double> out(nb);
  for (int b = 0; b < nb; ++b) {
    out[b] = BoundaryGini(
        std::span<const int64_t>(prefix.data() + static_cast<size_t>(b) * nc,
                                 nc),
        totals);
  }
  return out;
}

// EXPECT_EQ on doubles is exact (operator==): any reordered or
// contracted FP op in a vector tier shows up as a failure here.
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::string& tier) {
  ASSERT_EQ(got.size(), want.size()) << tier;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << tier << " boundary " << i;
  }
}

TEST(ScanBoundaryGinis, MatchesNaiveOnRandomPrefixes) {
  uint64_t state = 0x2545F4914F6CDD1DULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Boundary counts straddling the vector widths (1..9) and class
  // counts hitting the lane-internal class loop (2..6).
  for (const int nb : {1, 2, 3, 4, 5, 7, 8, 9, 33}) {
    for (const int nc : {2, 3, 6}) {
      std::vector<int64_t> prefix(static_cast<size_t>(nb) * nc);
      std::vector<int64_t> totals(nc, 0);
      // Build monotone prefix rows the way the estimator does: row b =
      // row b-1 plus a nonnegative per-class increment.
      std::vector<int64_t> acc(nc, 0);
      for (int b = 0; b < nb; ++b) {
        for (int c = 0; c < nc; ++c) {
          acc[c] += static_cast<int64_t>(next() % 5);
          prefix[static_cast<size_t>(b) * nc + c] = acc[c];
        }
      }
      for (int c = 0; c < nc; ++c) {
        totals[c] = acc[c] + static_cast<int64_t>(next() % 7);
      }
      const std::vector<double> want = NaiveScan(prefix, nb, nc, totals);
      std::vector<double> got(nb);
      ScanBoundaryGinis(prefix.data(), nb, nc, totals.data(), got.data());
      ExpectBitEqual(got, want, "public");
      for (const auto& [name, fn] : ScanTiers()) {
        std::vector<double> tier_got(nb, -1.0);
        fn(prefix.data(), nb, nc, totals.data(), tier_got.data());
        ExpectBitEqual(tier_got, want, name);
      }
    }
  }
}

TEST(ScanBoundaryGinis, AllOneClassNodeIsZeroEverywhere) {
  // A pure node: every boundary's weighted gini is exactly 0.0 (both
  // sides are pure or empty), and the empty-side 0/0 must come out as
  // the scalar's 0.0, not NaN.
  const int nb = 9, nc = 3;
  std::vector<int64_t> prefix(static_cast<size_t>(nb) * nc, 0);
  for (int b = 0; b < nb; ++b) {
    prefix[static_cast<size_t>(b) * nc + 1] = b;  // class 1 only
  }
  const std::vector<int64_t> totals = {0, 12, 0};
  const std::vector<double> want = NaiveScan(prefix, nb, nc, totals);
  std::vector<double> got(nb, -1.0);
  ScanBoundaryGinis(prefix.data(), nb, nc, totals.data(), got.data());
  for (int b = 0; b < nb; ++b) {
    EXPECT_EQ(got[b], 0.0) << "boundary " << b;
  }
  ExpectBitEqual(got, want, "public");
  for (const auto& [name, fn] : ScanTiers()) {
    std::vector<double> tier_got(nb, -1.0);
    fn(prefix.data(), nb, nc, totals.data(), tier_got.data());
    ExpectBitEqual(tier_got, want, name);
  }
}

TEST(ScanBoundaryGinis, EmptyIntervalsRepeatPrefixRows) {
  // Duplicate cut points / empty intervals show up as REPEATED prefix
  // rows, including the all-records row (empty right side → 0/0 in the
  // right lane) and the zero row (empty left side).
  const int nc = 2;
  const std::vector<int64_t> totals = {6, 4};
  const std::vector<int64_t> prefix = {
      0, 0,  // empty left side
      0, 0,  // repeated: still empty
      3, 1,  //
      3, 1,  // repeated interior row
      6, 4,  // all records: empty right side
      6, 4,  // repeated
      6, 4,  // and once more (vector width + tail both see it)
  };
  const int nb = 7;
  const std::vector<double> want = NaiveScan(prefix, nb, nc, totals);
  std::vector<double> got(nb, -1.0);
  ScanBoundaryGinis(prefix.data(), nb, nc, totals.data(), got.data());
  ExpectBitEqual(got, want, "public");
  for (int b = 0; b < nb; ++b) {
    EXPECT_FALSE(std::isnan(got[b])) << "boundary " << b;
  }
  for (const auto& [name, fn] : ScanTiers()) {
    std::vector<double> tier_got(nb, -1.0);
    fn(prefix.data(), nb, nc, totals.data(), tier_got.data());
    ExpectBitEqual(tier_got, want, name);
  }
}

TEST(ScanBoundaryGinis, EmptyNodeAndNoBoundaries) {
  // num_boundaries == 0 must be a no-op; an all-zero totals vector (an
  // empty node) must yield the scalar's exact 0.0, never NaN.
  const std::vector<int64_t> totals_zero = {0, 0};
  ScanBoundaryGinis(nullptr, 0, 2, totals_zero.data(), nullptr);

  const int nb = 5;
  std::vector<int64_t> prefix(nb * 2, 0);
  const std::vector<double> want = NaiveScan(prefix, nb, 2, totals_zero);
  std::vector<double> got(nb, -1.0);
  ScanBoundaryGinis(prefix.data(), nb, 2, totals_zero.data(), got.data());
  ExpectBitEqual(got, want, "public");
  for (int b = 0; b < nb; ++b) {
    EXPECT_EQ(got[b], 0.0) << "boundary " << b;
  }
  for (const auto& [name, fn] : ScanTiers()) {
    std::vector<double> tier_got(nb, -1.0);
    fn(prefix.data(), nb, 2, totals_zero.data(), tier_got.data());
    ExpectBitEqual(tier_got, want, name);
  }
}

TEST(ScanBoundaryGinis, LargeCountsStayExact) {
  // Counts near the top of the exactly-representable integer range the
  // build can produce (int64 record counts well below 2^53): the int ->
  // double conversions in every tier are exact, so equality must hold
  // bit-for-bit, not within an epsilon.
  const int64_t big = (int64_t{1} << 50) + 12345;
  const std::vector<int64_t> totals = {big, big / 3};
  const std::vector<int64_t> prefix = {
      1,       0,       //
      big / 2, big / 7,  //
      big - 1, big / 3,  //
  };
  const int nb = 3;
  const std::vector<double> want = NaiveScan(prefix, nb, 2, totals);
  std::vector<double> got(nb);
  ScanBoundaryGinis(prefix.data(), nb, 2, totals.data(), got.data());
  ExpectBitEqual(got, want, "public");
  for (const auto& [name, fn] : ScanTiers()) {
    std::vector<double> tier_got(nb);
    fn(prefix.data(), nb, 2, totals.data(), tier_got.data());
    ExpectBitEqual(tier_got, want, name);
  }
}

}  // namespace
}  // namespace cmp
