#include "cmp/linear.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "gini/gini.h"

namespace cmp {
namespace {

// Builds a matrix over [0,100]^2 whose labels follow `label_fn` evaluated
// at cell centers, with `per_cell` records per cell.
HistogramMatrix MakeMatrix(const IntervalGrid& gx, const IntervalGrid& gy,
                           ClassId (*label_fn)(double, double),
                           int per_cell = 5) {
  const int qx = gx.num_intervals();
  const int qy = gy.num_intervals();
  HistogramMatrix m(qx, qy, 2);
  auto center = [](const IntervalGrid& g, int i) {
    const auto& cuts = g.boundaries();
    const double lo = i == 0 ? g.min_value() : cuts[i - 1];
    const double hi =
        i == static_cast<int>(cuts.size()) ? g.max_value() : cuts[i];
    return (lo + hi) / 2.0;
  };
  for (int x = 0; x < qx; ++x) {
    for (int y = 0; y < qy; ++y) {
      m.Add(x, y, label_fn(center(gx, x), center(gy, y)), per_cell);
    }
  }
  return m;
}

IntervalGrid UniformGrid(int q) {
  std::vector<double> cuts;
  for (int i = 1; i < q; ++i) {
    cuts.push_back(100.0 * i / q);
  }
  return IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 100.0);
}

TEST(LinearSplit, FindsDiagonalBoundary) {
  // Concept: x + y <= 100 -> class 0 (negative slope boundary).
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + y <= 100.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  // The line's gini must be far better than any axis-parallel split on
  // this concept (which can do no better than ~0.25).
  EXPECT_LT(line.gini, 0.15);
  // Coefficients must have the same sign (negative slope boundary) and a
  // ratio near 1.
  EXPECT_GT(line.a * line.b, 0.0);
  EXPECT_NEAR(line.a / line.b, 1.0, 0.4);
  EXPECT_NEAR(line.c / line.a, 100.0, 25.0);
}

TEST(LinearSplit, FindsPositiveSlopeBoundary) {
  // Concept: y >= x -> class 0 (positive slope boundary y - x >= 0).
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return y >= x ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  EXPECT_LT(line.gini, 0.15);
  // Opposite-sign coefficients characterize a positive-slope line.
  EXPECT_LT(line.a * line.b, 0.0);
}

TEST(LinearSplit, PoorFitOnAxisAlignedConcept) {
  // Concept: x <= 50 -> class 0. A univariate split is perfect; the best
  // line cannot be dramatically better than chance on both sides of a
  // vertical boundary, but more importantly it must never be *invalid*.
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double /*y*/) -> ClassId {
        return x <= 50.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  // A steep line can approximate the vertical boundary, so the gini may
  // be low; sanity-check that it is a real partition.
  EXPECT_GE(line.gini, 0.0);
  EXPECT_LE(line.gini, 0.5);
}

TEST(LinearSplit, DegenerateMatrixInvalid) {
  const IntervalGrid g1 = UniformGrid(1);
  const IntervalGrid g = UniformGrid(10);
  HistogramMatrix m(1, 10, 2);
  EXPECT_FALSE(FindBestLine(m, g1, 0, g, 32).valid);
}

TEST(LinearSplit, EmptyMatrixInvalid) {
  const IntervalGrid g = UniformGrid(10);
  HistogramMatrix m(10, 10, 2);
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  EXPECT_FALSE(line.valid);
}

TEST(LinearSplit, CoarseningPreservesDetection) {
  const IntervalGrid g = UniformGrid(100);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + y <= 100.0 ? 0 : 1;
      });
  // Even aggressively coarsened (8x8) the diagonal must be detected.
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 8);
  ASSERT_TRUE(line.valid);
  EXPECT_LT(line.gini, 0.25);
}

TEST(LinearSplit, GiniConsistentWithManualCellPartition) {
  // For a returned line, recomputing the 3-way gini by classifying cell
  // corners must reproduce line.gini when no coarsening happens.
  const IntervalGrid g = UniformGrid(10);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + 2 * y <= 150.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 10);
  ASSERT_TRUE(line.valid);

  auto edge = [&](int i) {
    if (i == 0) return g.min_value();
    if (i == g.num_intervals()) return g.max_value();
    return g.boundaries()[i - 1];
  };
  std::vector<int64_t> under(2, 0);
  std::vector<int64_t> above(2, 0);
  std::vector<int64_t> on(2, 0);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      const double f_max =
          line.a * edge(x + 1) + line.b * edge(y + 1) - line.c;
      const double f_min = line.a * edge(x) + line.b * edge(y) - line.c;
      std::vector<int64_t>* bucket =
          f_max <= 0 ? &under : (f_min >= 0 ? &above : &on);
      for (ClassId c = 0; c < 2; ++c) {
        (*bucket)[c] += m.count(x, y, c);
      }
    }
  }
  // Note: the walk uses positive-coefficient classification internally;
  // for positive-slope results the mirrored geometry classifies cells
  // identically, so this check holds for either orientation when b > 0.
  if (line.b > 0) {
    EXPECT_NEAR(SplitGini3(under, above, on), line.gini, 1e-9);
  }
}

// A random grid of `q` intervals over [lo, lo + span]. With
// `min_is_first_cut` the first interval has zero width (the minimum
// equals the first cut, as with a spike of equal values at the
// minimum), which makes the walk's first line coefficient 1/0.
IntervalGrid RandomGrid(Rng& rng, int q, bool min_is_first_cut) {
  const double lo = rng.Uniform(-100.0, 100.0);
  const double span = rng.Uniform(1.0, 1000.0);
  std::vector<double> cuts;
  double v = lo;
  for (int i = 1; i < q; ++i) {
    if (!(min_is_first_cut && i == 1)) v += rng.Uniform(0.01, 1.0) * span / q;
    cuts.push_back(v);
  }
  return IntervalGrid::FromBoundaries(std::move(cuts), lo,
                                      v + rng.Uniform(0.01, 1.0) * span / q);
}

// The O(cx + cy) column walk must reproduce the per-cell reference
// exactly: same line, same coefficients, same gini, bit for bit.
TEST(LinearSplit, ColumnWalkMatchesPerCellReference) {
  Rng rng(20001);
  const int kMaxGrids[] = {8, 32, 0};  // 0: no coarsening
  int valid_lines = 0;
  int zero_width_grids = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int nc = 2 + trial % 2;
    const int nx = static_cast<int>(rng.UniformInt(2, 40));
    const int ny = static_cast<int>(rng.UniformInt(2, 40));
    // Matrix columns cover global X intervals [x_lo, x_lo + nx).
    const int x_lo =
        trial % 4 == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 10));
    const bool x_spike = x_lo == 0 && rng.Bernoulli(0.5);
    const bool y_spike = rng.Bernoulli(0.3);
    zero_width_grids += (x_spike || y_spike) ? 1 : 0;
    const IntervalGrid gx = RandomGrid(rng, x_lo + nx + (trial % 3), x_spike);
    const IntervalGrid gy = RandomGrid(rng, ny, y_spike);
    HistogramMatrix m(nx, ny, nc);
    const double fill = rng.Uniform(0.2, 1.0);
    for (int x = 0; x < nx; ++x) {
      if (rng.Bernoulli(0.15)) continue;  // an empty column
      for (int y = 0; y < ny; ++y) {
        if (!rng.Bernoulli(fill)) continue;
        for (ClassId c = 0; c < nc; ++c) {
          m.Add(x, y, c, rng.UniformInt(0, 20));
        }
      }
    }
    const int coarse = kMaxGrids[(trial / 2) % 3];
    const int max_grid = coarse > 0 ? coarse : std::max(nx, ny);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " nc " << nc
                                    << " " << nx << "x" << ny << " x_lo "
                                    << x_lo << " max_grid " << max_grid);
    const LinearSplitResult ref =
        FindBestLineReference(m, gx, x_lo, gy, max_grid);
    const LinearSplitResult walk = FindBestLine(m, gx, x_lo, gy, max_grid);
    EXPECT_EQ(walk.valid, ref.valid);
    EXPECT_EQ(walk.a, ref.a);
    EXPECT_EQ(walk.b, ref.b);
    EXPECT_EQ(walk.c, ref.c);
    EXPECT_EQ(walk.gini, ref.gini);
    valid_lines += ref.valid ? 1 : 0;
  }
  // The draw must exercise both real lines and the zero-width fallback.
  EXPECT_GT(valid_lines, 200);
  EXPECT_GT(zero_width_grids, 50);
}

}  // namespace
}  // namespace cmp
