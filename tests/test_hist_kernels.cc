// The attribute-major batch kernels must reproduce the record-major
// counts EXACTLY — same integer cells, any batch split — because the
// scan path swaps them in under the bit-identical-trees contract. Tested
// bottom-up: raw kernels vs direct counting (both code widths), then
// HistBundle::AccumulateBatch vs Add, then whole builds with and without
// the code cache.
//
// The tail cases double as the over-read regression test: code columns
// are allocated to exactly one code per record, so a batch ending at the
// last record of a column makes any read past it a heap-buffer-overflow
// that the ASan build (CMP_SANITIZE=address) reports as a hard failure.
#include "hist/hist_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cmp/bundle.h"
#include "cmp/cmp.h"
#include "common/random.h"
#include "datagen/agrawal.h"
#include "hist/grids.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

// Encodes a full dataset the way the builder does after grid
// construction: numeric columns as interval indices, categorical
// columns as values, labels riding along.
BinCodeCache EncodeDataset(const Dataset& ds,
                           const std::vector<IntervalGrid>& grids,
                           int max_intervals) {
  BinCodeCache codes(ds.schema(), ds.num_records(), max_intervals);
  EXPECT_TRUE(codes.enabled());
  for (AttrId a = 0; a < ds.num_attrs(); ++a) {
    if (ds.schema().is_numeric(a)) {
      codes.EncodeNumericColumn(a, grids[a], ds.numeric_column(a));
    } else {
      codes.EncodeCategoricalColumn(a, ds.categorical_column(a));
    }
  }
  codes.SetLabels(ds.labels());
  return codes;
}

class HistKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF3;  // numeric + categorical splits
    gen.num_records = 3000;
    gen.seed = 149;
    ds_ = GenerateAgrawal(gen);
    grids_ = ComputeEqualDepthGrids(ds_, 20, nullptr);
    codes_ = EncodeDataset(ds_, grids_, 20);
    // An uneven subset of the records, in the ascending order a scan
    // delivers them.
    Rng rng(151);
    for (RecordId r = 0; r < ds_.num_records(); ++r) {
      if (rng.UniformDouble() < 0.6) rids_.push_back(r);
    }
  }

  void ExpectSameCells(const HistBundle& got, const HistBundle& want) {
    for (AttrId a = 0; a < ds_.num_attrs(); ++a) {
      const Histogram1D hg = got.HistFor(a);
      const Histogram1D hw = want.HistFor(a);
      ASSERT_EQ(hg.num_intervals(), hw.num_intervals()) << "attr " << a;
      for (int i = 0; i < hg.num_intervals(); ++i) {
        for (ClassId c = 0; c < hg.num_classes(); ++c) {
          ASSERT_EQ(hg.count(i, c), hw.count(i, c))
              << "attr " << a << " row " << i << " class " << c;
        }
      }
    }
  }

  Dataset ds_;
  std::vector<IntervalGrid> grids_;
  BinCodeCache codes_;
  std::vector<RecordId> rids_;
};

TEST_F(HistKernelsTest, Accumulate1DMatchesDirectCounts) {
  const AttrId salary = ds_.schema().FindAttr("salary");
  KernelScratch scratch;
  GatherLabels(codes_.labels(), rids_.data(), rids_.size(), &scratch.labels);

  Histogram1D hist(grids_[salary].num_intervals(), 2);
  AccumulateHist1D(codes_.view(salary), scratch.labels.data(), rids_.data(),
                   rids_.size(), 2, hist.data());

  Histogram1D direct(grids_[salary].num_intervals(), 2);
  for (const RecordId r : rids_) {
    direct.Add(grids_[salary].IntervalOf(ds_.numeric(salary, r)),
               ds_.label(r));
  }
  for (int i = 0; i < hist.num_intervals(); ++i) {
    for (ClassId c = 0; c < 2; ++c) {
      EXPECT_EQ(hist.count(i, c), direct.count(i, c)) << "row " << i;
    }
  }
}

TEST_F(HistKernelsTest, Accumulate1DSixteenBitCodes) {
  // Force the uint16_t kernel instantiation with a >256-interval grid.
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(static_cast<double>(i));
  const IntervalGrid grid =
      IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 300.0);
  Rng rng(157);
  const int64_t n = 2000;
  std::vector<double> column(n);
  std::vector<ClassId> labels(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = rng.Uniform(-2.0, 302.0);
    labels[i] = rng.UniformInt(0, 1);
  }
  Schema schema({{"x", AttrKind::kNumeric, 0}}, {"neg", "pos"});
  BinCodeCache codes(schema, n, /*max_intervals=*/1024);
  ASSERT_TRUE(codes.enabled());
  codes.EncodeNumericColumn(0, grid, column);
  codes.SetLabels(labels);
  ASSERT_EQ(codes.width(0), 2);

  std::vector<RecordId> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  KernelScratch scratch;
  GatherLabels(codes.labels(), all.data(), all.size(), &scratch.labels);
  Histogram1D hist(grid.num_intervals(), 2);
  AccumulateHist1D(codes.view(0), scratch.labels.data(), all.data(),
                   all.size(), 2, hist.data());
  Histogram1D direct(grid.num_intervals(), 2);
  for (int64_t i = 0; i < n; ++i) {
    direct.Add(grid.IntervalOf(column[i]), labels[i]);
  }
  for (int i = 0; i < hist.num_intervals(); ++i) {
    for (ClassId c = 0; c < 2; ++c) {
      EXPECT_EQ(hist.count(i, c), direct.count(i, c)) << "row " << i;
    }
  }
}

TEST_F(HistKernelsTest, BatchMatchesRecordMajorUnivariate) {
  HistBundle batched = HistBundle::MakeUnivariate(ds_.schema(), grids_);
  HistBundle serial = HistBundle::MakeUnivariate(ds_.schema(), grids_);
  for (const RecordId r : rids_) serial.Add(ds_, grids_, r);
  // Flush in two uneven batches — cell counts must not care where the
  // batch boundary falls.
  KernelScratch scratch;
  const size_t cut = rids_.size() / 3;
  batched.AccumulateBatch(codes_, rids_.data(), cut, &scratch);
  batched.AccumulateBatch(codes_, rids_.data() + cut, rids_.size() - cut,
                          &scratch);
  ExpectSameCells(batched, serial);
}

TEST_F(HistKernelsTest, BatchMatchesRecordMajorBivariate) {
  const AttrId x = ds_.schema().FindAttr("age");
  const int qx = grids_[x].num_intervals();
  HistBundle batched =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, 0, qx);
  HistBundle serial =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, 0, qx);
  for (const RecordId r : rids_) serial.Add(ds_, grids_, r);
  KernelScratch scratch;
  batched.AccumulateBatch(codes_, rids_.data(), rids_.size(), &scratch);
  ExpectSameCells(batched, serial);
}

TEST_F(HistKernelsTest, BatchMatchesRecordMajorBivariateSubRange) {
  // A child bundle covering only X-intervals [x_lo, x_hi): GatherXRows
  // must rebase the X codes by x_lo exactly like Add does.
  const AttrId x = ds_.schema().FindAttr("age");
  const int qx = grids_[x].num_intervals();
  const int x_lo = qx / 4;
  const int x_hi = qx - qx / 4;
  std::vector<RecordId> inside;
  for (const RecordId r : rids_) {
    const int gx = grids_[x].IntervalOf(ds_.numeric(x, r));
    if (gx >= x_lo && gx < x_hi) inside.push_back(r);
  }
  ASSERT_FALSE(inside.empty());
  HistBundle batched =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, x_lo, x_hi);
  HistBundle serial =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, x_lo, x_hi);
  for (const RecordId r : inside) serial.Add(ds_, grids_, r);
  KernelScratch scratch;
  batched.AccumulateBatch(codes_, inside.data(), inside.size(), &scratch);
  ExpectSameCells(batched, serial);
}

// ---------------------------------------------------------------------
// Random exact-size columns: every kernel vs naive counting, on the
// batch shapes the scan produces plus a batch that ends at the column's
// last record.

std::vector<std::string> ClassNames(int num_classes) {
  std::vector<std::string> names;
  for (int c = 0; c < num_classes; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    names.push_back(std::move(name));
  }
  return names;
}

struct RandomColumn {
  IntervalGrid grid;
  BinCodeCache codes;
  std::vector<ClassId> labels;
};

// Values drawn from a SMALL discrete pool so the equal-depth grid sees
// heavy duplicate cut points, plus out-of-range strays that land in the
// clamp intervals. 1-byte codes.
RandomColumn MakeNarrowColumn(int64_t n, int num_intervals, int num_classes,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<double> column(n);
  RandomColumn out;
  out.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = static_cast<double>(rng.UniformInt(0, 11)) * 3.5;
    if (rng.UniformDouble() < 0.05) column[i] = rng.Uniform(-100.0, 500.0);
    out.labels[i] = static_cast<ClassId>(rng.UniformInt(0, num_classes - 1));
  }
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  out.grid = IntervalGrid::EqualDepthFromSorted(sorted, num_intervals);
  Schema schema({{"x", AttrKind::kNumeric, 0}}, ClassNames(num_classes));
  out.codes = BinCodeCache(schema, n, std::max(num_intervals, 4));
  EXPECT_TRUE(out.codes.enabled());
  out.codes.EncodeNumericColumn(0, out.grid, column);
  out.codes.SetLabels(out.labels);
  return out;
}

// >255 intervals force 2-byte codes.
RandomColumn MakeWideColumn(int64_t n, int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(static_cast<double>(i));
  RandomColumn out;
  out.grid = IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 300.0);
  std::vector<double> column(n);
  out.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = rng.Uniform(-5.0, 305.0);
    out.labels[i] = static_cast<ClassId>(rng.UniformInt(0, num_classes - 1));
  }
  Schema schema({{"x", AttrKind::kNumeric, 0}}, ClassNames(num_classes));
  out.codes = BinCodeCache(schema, n, /*max_intervals=*/1024);
  EXPECT_TRUE(out.codes.enabled());
  out.codes.EncodeNumericColumn(0, out.grid, column);
  out.codes.SetLabels(out.labels);
  return out;
}

// A contiguous block, an ascending subset with gaps, the same subset
// shuffled (the kernels do not require ascending order), and the full
// range ending at the LAST record.
std::vector<std::vector<RecordId>> BatchShapes(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<RecordId>> batches;
  std::vector<RecordId> contiguous;
  for (RecordId r = n / 4; r < n - n / 4; ++r) contiguous.push_back(r);
  batches.push_back(std::move(contiguous));
  std::vector<RecordId> gaps;
  for (RecordId r = 0; r < n; ++r) {
    if (rng.UniformDouble() < 0.55) gaps.push_back(r);
  }
  batches.push_back(gaps);
  std::vector<RecordId> shuffled = batches.back();
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  batches.push_back(std::move(shuffled));
  std::vector<RecordId> all(n);
  for (RecordId r = 0; r < n; ++r) all[r] = r;
  batches.push_back(std::move(all));
  return batches;
}

std::vector<int64_t> KernelCounts1D(const RandomColumn& t,
                                    const std::vector<RecordId>& rids,
                                    int nc) {
  KernelScratch scratch;
  GatherLabels(t.codes.labels(), rids.data(), rids.size(), &scratch.labels);
  std::vector<int64_t> cells(
      static_cast<size_t>(t.grid.num_intervals()) * nc, 0);
  AccumulateHist1D(t.codes.view(0), scratch.labels.data(), rids.data(),
                   rids.size(), nc, cells.data());
  return cells;
}

std::vector<int64_t> DirectCounts1D(const RandomColumn& t,
                                    const std::vector<RecordId>& rids,
                                    int nc) {
  std::vector<int64_t> cells(
      static_cast<size_t>(t.grid.num_intervals()) * nc, 0);
  for (const RecordId r : rids) {
    cells[static_cast<size_t>(t.codes.code(0, r)) * nc + t.labels[r]]++;
  }
  return cells;
}

// The column serves as both the X and the Y axis of a bivariate cell
// grid whose X range starts at x_lo, like a child bundle covering a
// sub-range.
std::vector<int64_t> KernelCounts2D(const RandomColumn& t,
                                    const std::vector<RecordId>& rids,
                                    int x_lo, int nc) {
  const int q = t.grid.num_intervals();
  std::vector<RecordId> inside;
  for (const RecordId r : rids) {
    if (t.codes.code(0, r) >= x_lo) inside.push_back(r);
  }
  KernelScratch scratch;
  GatherLabels(t.codes.labels(), inside.data(), inside.size(),
               &scratch.labels);
  GatherXRows(t.codes.view(0), x_lo, inside.data(), inside.size(),
              &scratch.xrows);
  std::vector<int64_t> cells(static_cast<size_t>(q - x_lo) * q * nc, 0);
  AccumulateHist2D(scratch.xrows.data(), t.codes.view(0),
                   scratch.labels.data(), inside.data(), inside.size(), q,
                   nc, cells.data());
  return cells;
}

std::vector<int64_t> DirectCounts2D(const RandomColumn& t,
                                    const std::vector<RecordId>& rids,
                                    int x_lo, int nc) {
  const int q = t.grid.num_intervals();
  std::vector<int64_t> cells(static_cast<size_t>(q - x_lo) * q * nc, 0);
  for (const RecordId r : rids) {
    const int code = t.codes.code(0, r);
    if (code < x_lo) continue;
    const size_t cell = static_cast<size_t>(code - x_lo) * q + code;
    cells[cell * nc + t.labels[r]]++;
  }
  return cells;
}

TEST(HistKernelsTail, EightBitColumnsMatchDirectCounts) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    // 511 records ends one short of a round chunk; 37 is shorter than
    // any batch the scan flushes.
    for (const int64_t n : {int64_t{511}, int64_t{2048}, int64_t{37}}) {
      for (const int nc : {2, 5}) {
        const RandomColumn t = MakeNarrowColumn(n, 40, nc, seed);
        ASSERT_EQ(t.codes.width(0), 1);
        const int x_lo = t.grid.num_intervals() / 4;
        for (const auto& rids : BatchShapes(n, seed * 3 + nc)) {
          ASSERT_EQ(KernelCounts1D(t, rids, nc), DirectCounts1D(t, rids, nc))
              << "seed=" << seed << " n=" << n << " nc=" << nc
              << " batch=" << rids.size();
          ASSERT_EQ(KernelCounts2D(t, rids, x_lo, nc),
                    DirectCounts2D(t, rids, x_lo, nc))
              << "2d seed=" << seed << " n=" << n << " nc=" << nc
              << " batch=" << rids.size();
        }
      }
    }
  }
}

TEST(HistKernelsTail, SixteenBitColumnsMatchDirectCounts) {
  for (const uint64_t seed : {21u, 22u}) {
    for (const int64_t n : {int64_t{511}, int64_t{1500}}) {
      const RandomColumn t = MakeWideColumn(n, 2, seed);
      ASSERT_EQ(t.codes.width(0), 2) << ">255 intervals must code as u16";
      const int x_lo = t.grid.num_intervals() / 4;
      for (const auto& rids : BatchShapes(n, seed)) {
        ASSERT_EQ(KernelCounts1D(t, rids, 2), DirectCounts1D(t, rids, 2))
            << "seed=" << seed << " n=" << n << " batch=" << rids.size();
        ASSERT_EQ(KernelCounts2D(t, rids, x_lo, 2),
                  DirectCounts2D(t, rids, x_lo, 2))
            << "2d seed=" << seed << " n=" << n << " batch=" << rids.size();
      }
    }
  }
}

// Build-level identity: the tree bytes must not depend on which scan
// path ran. Every combination of code cache and thread count must
// reproduce the plain record-major single-thread tree,
// for every CMP variant.
TEST(HistKernelsBuild, TreeBytesInvariantAcrossScanPaths) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF6;  // pendings + linear splits
  gen.num_records = 6000;
  gen.seed = 163;
  const Dataset train = GenerateAgrawal(gen);

  for (CmpOptions base :
       {CmpSOptions(), CmpBOptions(), CmpFullOptions()}) {
    base.base.in_memory_threshold = 256;  // keep the collect path in play
    CmpOptions plain = base;
    plain.bin_code_cache = false;
    const std::string reference =
        SerializeTree(CmpBuilder(plain).Build(train).tree);
    ASSERT_FALSE(reference.empty());
    for (const bool codes : {false, true}) {
      for (const int threads : {1, 4}) {
        CmpOptions o = base;
        o.bin_code_cache = codes;
        o.base.num_threads = threads;
        o.scan_shards = threads;
        EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), reference)
            << "codes=" << codes << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace cmp
