#include "cmp/linear.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gini/gini.h"

namespace cmp {

namespace {

// One axis of the (possibly coarsened) cell grid in value space:
// `edges[k]..edges[k+1]` bounds cell k.
struct Axis {
  std::vector<double> edges;  // size = cells + 1
  int cells() const { return static_cast<int>(edges.size()) - 1; }
};

// Builds the value-space edges of matrix columns/rows covering global
// intervals [lo, lo + n) of `grid`, merged into at most `max_cells`
// coarse cells. Returns the axis plus, per coarse cell, the [first, last]
// fine-cell range via `fine_begin`.
Axis CoarsenAxis(const IntervalGrid& grid, int lo, int n, int max_cells,
                 std::vector<int>* fine_begin) {
  // Fine edges: value bounds of each of the n fine cells.
  std::vector<double> fine_edges(n + 1);
  for (int k = 0; k <= n; ++k) {
    const int g = lo + k;  // global edge index: cut below interval g
    if (g == 0) {
      fine_edges[k] = grid.min_value();
    } else if (g - 1 < static_cast<int>(grid.boundaries().size())) {
      fine_edges[k] = grid.UpperCut(g - 1);
    } else {
      fine_edges[k] = grid.max_value();
    }
  }
  Axis axis;
  fine_begin->clear();
  const int groups = std::min(n, max_cells);
  axis.edges.reserve(groups + 1);
  for (int g = 0; g < groups; ++g) {
    const int begin = static_cast<int>(
        static_cast<int64_t>(n) * g / groups);
    fine_begin->push_back(begin);
    axis.edges.push_back(fine_edges[begin]);
  }
  axis.edges.push_back(fine_edges[n]);
  return axis;
}

// Class counts of the coarsened matrix, laid out [x][y][class].
std::vector<int64_t> CoarsenMatrix(const HistogramMatrix& m,
                                   const std::vector<int>& xb,
                                   const std::vector<int>& yb) {
  const int cx = static_cast<int>(xb.size());
  const int cy = static_cast<int>(yb.size());
  const int nc = m.num_classes();
  std::vector<int64_t> out(static_cast<size_t>(cx) * cy * nc, 0);
  auto group_of = [](const std::vector<int>& begins, int fine) {
    // begins is ascending; find the last begin <= fine.
    const auto it =
        std::upper_bound(begins.begin(), begins.end(), fine) - 1;
    return static_cast<int>(it - begins.begin());
  };
  for (int x = 0; x < m.x_intervals(); ++x) {
    const int gx = group_of(xb, x);
    for (int y = 0; y < m.y_intervals(); ++y) {
      const int gy = group_of(yb, y);
      const int64_t* cell = m.cell(x, y);
      int64_t* dst = out.data() + (static_cast<size_t>(gx) * cy + gy) * nc;
      for (int c = 0; c < nc; ++c) dst[c] += cell[c];
    }
  }
  return out;
}

struct WalkResult {
  bool valid = false;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double gini = 1.0;
};

// How each candidate line's partition is counted.
enum class LineEval {
  kColumnWalk,  // two pointers per column over prefix sums: O(cx + cy)
  kPerCell,     // classify every cell: O(cx * cy), the reference
};

// The line function at one grid corner. Both evaluators go through this
// one expression, so they classify every cell from the same doubles.
double Corner(double a, double x, double b, double y, double c) {
  return a * x + b * y - c;
}

bool Ascending(const Axis& axis) {
  for (size_t k = 1; k < axis.edges.size(); ++k) {
    if (!(axis.edges[k - 1] <= axis.edges[k])) return false;
  }
  return true;
}

// The coarse grid of one walk: cell counts [x][y][class], their grand
// totals and, for the column walk, per-column prefix sums over y laid
// out [x][y][class] with cy + 1 rows (row y = cells [0, y)).
struct CellGrid {
  const std::vector<int64_t>* cells = nullptr;
  const Axis* ax = nullptr;
  const Axis* ay = nullptr;
  int nc = 0;
  std::vector<int64_t> totals;
  std::vector<int64_t> prefix;  // empty: evaluate per cell
};

CellGrid PrepareGrid(const std::vector<int64_t>& cells, const Axis& ax,
                     const Axis& ay, int nc, LineEval eval) {
  CellGrid g;
  g.cells = &cells;
  g.ax = &ax;
  g.ay = &ay;
  g.nc = nc;
  g.totals.assign(nc, 0);
  const int cx = ax.cells();
  const int cy = ay.cells();
  for (size_t i = 0; i < cells.size(); ++i) g.totals[i % nc] += cells[i];
  // The walk relies on corner values growing with x and with y, which
  // needs ascending edges; anything else keeps the per-cell loop.
  if (eval != LineEval::kColumnWalk || !Ascending(ax) || !Ascending(ay)) {
    return g;
  }
  g.prefix.assign(static_cast<size_t>(cx) * (cy + 1) * nc, 0);
  for (int x = 0; x < cx; ++x) {
    const int64_t* col = cells.data() + static_cast<size_t>(x) * cy * nc;
    int64_t* pre = g.prefix.data() + static_cast<size_t>(x) * (cy + 1) * nc;
    for (int y = 0; y < cy; ++y) {
      for (int k = 0; k < nc; ++k) {
        pre[(y + 1) * nc + k] = pre[y * nc + k] + col[y * nc + k];
      }
    }
  }
  return g;
}

// Whether the column walk counts the line a*X + b*Y <= c exactly like
// the per-cell loop. With a, b > 0 and every product a*x, b*y finite,
// a corner value is a composition of correctly rounded +, * and - that
// never meets inf - inf, and rounding is monotone, so it cannot
// decrease as x or y grows. A zero-width first cell (min == first cut,
// e.g. a spike of equal values at the minimum) gives a = 1/0 = inf;
// such lines take the reference loop.
bool WalkExact(const CellGrid& g, double a, double b, double c) {
  if (g.prefix.empty()) return false;
  if (!(a > 0.0) || !(b > 0.0) || !std::isfinite(a) || !std::isfinite(b) ||
      !std::isfinite(c)) {
    return false;
  }
  return std::isfinite(a * g.ax->edges.front()) &&
         std::isfinite(a * g.ax->edges.back()) &&
         std::isfinite(b * g.ay->edges.front()) &&
         std::isfinite(b * g.ay->edges.back());
}

// Class counts of the three-way partition induced by a*X + b*Y <= c
// with a, b > 0 over the coarse grid, classifying every cell: its max
// corner decides "under", its min corner decides "above".
void CountPerCell(const CellGrid& g, double a, double b, double c,
                  std::vector<int64_t>* under, std::vector<int64_t>* above,
                  std::vector<int64_t>* on) {
  const Axis& ax = *g.ax;
  const Axis& ay = *g.ay;
  const int nc = g.nc;
  const int cy = ay.cells();
  for (int x = 0; x < ax.cells(); ++x) {
    for (int y = 0; y < cy; ++y) {
      const int64_t* cell =
          g.cells->data() + (static_cast<size_t>(x) * cy + y) * nc;
      const double f_max = Corner(a, ax.edges[x + 1], b, ay.edges[y + 1], c);
      const double f_min = Corner(a, ax.edges[x], b, ay.edges[y], c);
      std::vector<int64_t>* bucket;
      if (f_max <= 0.0) {
        bucket = under;
      } else if (f_min >= 0.0) {
        bucket = above;
      } else {
        bucket = on;
      }
      for (int k = 0; k < nc; ++k) (*bucket)[k] += cell[k];
    }
  }
}

// The same counts in O(cx + cy) corner evaluations. In column x the
// cells under the line are a prefix [0, u) (max corner <= 0) and the
// cells whose min corner is >= 0 a suffix [w, cy), so "above" is
// [max(u, w), cy). Corner values only grow with x, so u and w only
// shrink from one column to the next: two pointers sweep each once.
void CountByColumnWalk(const CellGrid& g, double a, double b, double c,
                       std::vector<int64_t>* under,
                       std::vector<int64_t>* above,
                       std::vector<int64_t>* on) {
  const std::vector<double>& ex = g.ax->edges;
  const std::vector<double>& ey = g.ay->edges;
  const int nc = g.nc;
  const int cx = g.ax->cells();
  const int cy = g.ay->cells();
  int u = cy;
  int w = cy;
  for (int x = 0; x < cx; ++x) {
    while (u > 0 && !(Corner(a, ex[x + 1], b, ey[u], c) <= 0.0)) --u;
    while (w > 0 && Corner(a, ex[x], b, ey[w - 1], c) >= 0.0) --w;
    const int64_t* col =
        g.prefix.data() + static_cast<size_t>(x) * (cy + 1) * nc;
    const int64_t* at_u = col + static_cast<size_t>(u) * nc;
    const int64_t* at_above = col + static_cast<size_t>(std::max(u, w)) * nc;
    const int64_t* at_end = col + static_cast<size_t>(cy) * nc;
    for (int k = 0; k < nc; ++k) {
      (*under)[k] += at_u[k];
      (*above)[k] += at_end[k] - at_above[k];
    }
  }
  for (int k = 0; k < nc; ++k) {
    (*on)[k] = g.totals[k] - (*under)[k] - (*above)[k];
  }
}

// gini^D of the three-way partition (under / above / crossed cells).
double LineGini(const CellGrid& g, double a, double b, double c,
                int64_t* n_under, int64_t* n_above) {
  std::vector<int64_t> under(g.nc, 0);
  std::vector<int64_t> above(g.nc, 0);
  std::vector<int64_t> on(g.nc, 0);
  if (WalkExact(g, a, b, c)) {
    CountByColumnWalk(g, a, b, c, &under, &above, &on);
  } else {
    CountPerCell(g, a, b, c, &under, &above, &on);
  }
  *n_under = 0;
  *n_above = 0;
  for (int k = 0; k < g.nc; ++k) {
    *n_under += under[k];
    *n_above += above[k];
  }
  return SplitGini3(under, above, on);
}

// The paper's giniNegativeSlope walk: the line enters the grid at
// x-edge i on the bottom and y-edge j on the left; i and j advance
// greedily toward the top-right corner.
WalkResult NegativeSlopeWalk(const std::vector<int64_t>& cells,
                             const Axis& ax, const Axis& ay, int nc,
                             LineEval mode) {
  WalkResult best;
  const int max_i = ax.cells();
  const int max_j = ay.cells();
  if (max_i < 2 || max_j < 2) return best;
  const double x0 = ax.edges.front();
  const double y0 = ay.edges.front();
  const CellGrid grid = PrepareGrid(cells, ax, ay, nc, mode);

  auto line_for = [&](int i, int j, double* a, double* b, double* c) {
    // Line through (ax.edges[i], y0) and (x0, ay.edges[j]).
    const double dx = ax.edges[i] - x0;
    const double dy = ay.edges[j] - y0;
    *a = 1.0 / dx;
    *b = 1.0 / dy;
    *c = 1.0 + x0 / dx + y0 / dy;
  };

  auto eval = [&](int i, int j, WalkResult* out) {
    double a;
    double b;
    double c;
    line_for(i, j, &a, &b, &c);
    int64_t n_under = 0;
    int64_t n_above = 0;
    const double g = LineGini(grid, a, b, c, &n_under, &n_above);
    out->a = a;
    out->b = b;
    out->c = c;
    out->gini = g;
    out->valid = n_under > 0 && n_above > 0;
    return g;
  };

  int i = 1;
  int j = 1;
  WalkResult cur;
  eval(i, j, &cur);
  if (cur.valid && cur.gini < best.gini) best = cur;
  while (i < max_i || j < max_j) {
    WalkResult cand_x;
    WalkResult cand_y;
    double gx = std::numeric_limits<double>::infinity();
    double gy = std::numeric_limits<double>::infinity();
    if (i < max_i) gx = eval(i + 1, j, &cand_x);
    if (j < max_j) gy = eval(i, j + 1, &cand_y);
    if (gx <= gy) {
      ++i;
      cur = cand_x;
    } else {
      ++j;
      cur = cand_y;
    }
    if (cur.valid && (!best.valid || cur.gini < best.gini)) best = cur;
  }
  return best;
}

// Mirrors the grid along Y (y -> -y) so the negative-slope walk searches
// positive-slope lines; coefficients are mapped back by negating b.
WalkResult PositiveSlopeWalk(const std::vector<int64_t>& grid, const Axis& ax,
                             const Axis& ay, int nc, LineEval mode) {
  const int cy = ay.cells();
  Axis may;  // mirrored y axis
  may.edges.resize(ay.edges.size());
  for (size_t k = 0; k < ay.edges.size(); ++k) {
    may.edges[k] = -ay.edges[ay.edges.size() - 1 - k];
  }
  std::vector<int64_t> mgrid(grid.size());
  const int cx = ax.cells();
  for (int x = 0; x < cx; ++x) {
    for (int y = 0; y < cy; ++y) {
      const size_t src = (static_cast<size_t>(x) * cy + y) * nc;
      const size_t dst = (static_cast<size_t>(x) * cy + (cy - 1 - y)) * nc;
      for (int c = 0; c < nc; ++c) mgrid[dst + c] = grid[src + c];
    }
  }
  WalkResult r = NegativeSlopeWalk(mgrid, ax, may, nc, mode);
  r.b = -r.b;
  return r;
}

LinearSplitResult FindLine(const HistogramMatrix& m, const IntervalGrid& gx,
                           int x_lo, const IntervalGrid& gy, int max_grid,
                           LineEval mode) {
  LinearSplitResult out;
  const int nc = m.num_classes();
  if (m.x_intervals() < 2 || m.y_intervals() < 2) return out;

  std::vector<int> xb;
  std::vector<int> yb;
  const Axis ax = CoarsenAxis(gx, x_lo, m.x_intervals(), max_grid, &xb);
  const Axis ay = CoarsenAxis(gy, 0, m.y_intervals(), max_grid, &yb);
  const std::vector<int64_t> grid = CoarsenMatrix(m, xb, yb);

  const WalkResult neg = NegativeSlopeWalk(grid, ax, ay, nc, mode);
  const WalkResult pos = PositiveSlopeWalk(grid, ax, ay, nc, mode);
  const WalkResult& best =
      (!pos.valid || (neg.valid && neg.gini <= pos.gini)) ? neg : pos;
  if (!best.valid) return out;
  out.valid = true;
  out.a = best.a;
  out.b = best.b;
  out.c = best.c;
  out.gini = best.gini;
  return out;
}

}  // namespace

LinearSplitResult FindBestLine(const HistogramMatrix& m,
                               const IntervalGrid& gx, int x_lo,
                               const IntervalGrid& gy, int max_grid) {
  return FindLine(m, gx, x_lo, gy, max_grid, LineEval::kColumnWalk);
}

LinearSplitResult FindBestLineReference(const HistogramMatrix& m,
                                        const IntervalGrid& gx, int x_lo,
                                        const IntervalGrid& gy,
                                        int max_grid) {
  return FindLine(m, gx, x_lo, gy, max_grid, LineEval::kPerCell);
}

}  // namespace cmp
