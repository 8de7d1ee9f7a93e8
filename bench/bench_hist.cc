// bench_hist: throughput of the binned scan kernels.
//
// Three questions, answered on one Agrawal-generated table:
//
//  1. Kernel speedup — filling a node's HistBundle through the
//     attribute-major batch kernels (bin-code loads, one histogram hot
//     at a time) vs the record-major Add path (per-record binary search
//     across every attribute). Counts are verified cell-identical before
//     any number is reported.
//  2. Cache amortization — how many histogram passes the one-time
//     bin-code encode costs, i.e. after how many scan passes the cache
//     has paid for itself.
//  3. Gini scan speedup — the SSE2 boundary scan (what ScanBoundaryGinis
//     runs on x86-64) vs the scalar reference, bit-equality checked
//     before the time is reported.
//
// A whole CMP build with and without the code cache must also produce
// byte-identical trees ("deterministic"). The histogram kernels have no
// vector tiers: the SSE2/AVX2 ones measured 0.75-0.94x of scalar on
// contiguous batches, because accumulation is bound by memory traffic
// (DESIGN.md §4h).
//
// Results go to stdout and BENCH_hist.json (or argv[1]). CMP_BENCH_SCALE
// scales the record count (default 0.1 => 100k rows). Exits nonzero on
// any count, bit or tree mismatch.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cmp/bundle.h"
#include "cmp/cmp.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "gini/gini.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"
#include "tree/serialize.h"

namespace {

constexpr size_t kBatch = 512;  // the scan path's batch size

bool SameCells(const cmp::HistBundle& a, const cmp::HistBundle& b,
               int num_attrs) {
  for (cmp::AttrId attr = 0; attr < num_attrs; ++attr) {
    const cmp::Histogram1D ha = a.HistFor(attr);
    const cmp::Histogram1D hb = b.HistFor(attr);
    if (ha.num_intervals() != hb.num_intervals()) return false;
    for (int i = 0; i < ha.num_intervals(); ++i) {
      for (cmp::ClassId c = 0; c < ha.num_classes(); ++c) {
        if (ha.count(i, c) != hb.count(i, c)) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hist.json";
  const int64_t n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);

  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.perturbation = 0.3;
  gen.num_records = n;
  gen.seed = 17;
  const cmp::Dataset train = cmp::GenerateAgrawal(gen);
  const std::vector<cmp::IntervalGrid> grids =
      cmp::ComputeEqualDepthGrids(train, 100, nullptr);

  // --- one-time encode (the cache build the first pass pays) ---------
  cmp::Timer encode_timer;
  cmp::BinCodeCache codes(train.schema(), n, /*max_intervals=*/100);
  for (cmp::AttrId a = 0; a < train.num_attrs(); ++a) {
    if (train.schema().is_numeric(a)) {
      codes.EncodeNumericColumn(a, grids[a], train.numeric_column(a));
    } else {
      codes.EncodeCategoricalColumn(a, train.categorical_column(a));
    }
  }
  codes.SetLabels(train.labels());
  const double encode_seconds = encode_timer.Seconds();

  std::vector<cmp::RecordId> rids(n);
  for (int64_t i = 0; i < n; ++i) rids[i] = i;

  // --- record-major vs kernel accumulation, best of 3 passes each ----
  double record_major_s = 1e30;
  double kernel_s = 1e30;
  cmp::HistBundle serial;
  cmp::HistBundle batched;
  for (int pass = 0; pass < 3; ++pass) {
    serial = cmp::HistBundle::MakeUnivariate(train.schema(), grids);
    cmp::Timer t;
    for (int64_t r = 0; r < n; ++r) serial.Add(train, grids, r);
    record_major_s = std::min(record_major_s, t.Seconds());
  }
  cmp::KernelScratch scratch;
  for (int pass = 0; pass < 3; ++pass) {
    batched = cmp::HistBundle::MakeUnivariate(train.schema(), grids);
    cmp::Timer t;
    for (int64_t i = 0; i < n; i += kBatch) {
      const size_t count =
          static_cast<size_t>(std::min<int64_t>(kBatch, n - i));
      batched.AccumulateBatch(codes, rids.data() + i, count, &scratch);
    }
    kernel_s = std::min(kernel_s, t.Seconds());
  }
  const bool counts_match = SameCells(batched, serial, train.num_attrs());
  const double speedup = record_major_s / kernel_s;

  // --- the gini boundary scan, scalar vs SSE2 -----------------------
  // The division-heavy half of the work: 5 divides per boundary, where
  // 2-wide divpd genuinely multiplies throughput (the histogram kernels
  // above are integer-increment-bound instead). Bit-equality with the
  // scalar scan is checked before the SSE2 time is reported.
  const int gini_nb = 99;
  const int gini_nc = 2;
  const int gini_nodes = 2000;  // distinct prefix matrices, scanned in turn
  std::vector<int64_t> gini_prefix(
      static_cast<size_t>(gini_nodes) * gini_nb * gini_nc);
  std::vector<int64_t> gini_totals(
      static_cast<size_t>(gini_nodes) * gini_nc);
  {
    uint64_t state = 0x452821E638D01377ULL;
    for (int node = 0; node < gini_nodes; ++node) {
      int64_t acc[2] = {0, 0};
      for (int b = 0; b < gini_nb; ++b) {
        for (int c = 0; c < gini_nc; ++c) {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          acc[c] += static_cast<int64_t>(state % 9);
          gini_prefix[(static_cast<size_t>(node) * gini_nb + b) * gini_nc +
                      c] = acc[c];
        }
      }
      for (int c = 0; c < gini_nc; ++c) {
        gini_totals[static_cast<size_t>(node) * gini_nc + c] = acc[c] + 3;
      }
    }
  }
  using ScanFn = void (*)(const int64_t*, int, int, const int64_t*,
                          double*);
  std::vector<std::pair<const char*, ScanFn>> scans = {
      {"scalar", cmp::ScanBoundaryGinisScalar}};
#if defined(__SSE2__)
  scans.emplace_back("sse2", cmp::ScanBoundaryGinisSse2);
#endif
  struct GiniRow {
    const char* name;
    double seconds = 1e30;
    bool match = true;
  };
  std::vector<GiniRow> gini_tiers;
  std::vector<double> gini_ref(static_cast<size_t>(gini_nodes) * gini_nb);
  std::vector<double> gini_out(gini_ref.size());
  for (const auto& [name, scan] : scans) {
    GiniRow row;
    row.name = name;
    for (int pass = 0; pass < 5; ++pass) {
      cmp::Timer t;
      for (int node = 0; node < gini_nodes; ++node) {
        scan(gini_prefix.data() +
                 static_cast<size_t>(node) * gini_nb * gini_nc,
             gini_nb, gini_nc,
             gini_totals.data() + static_cast<size_t>(node) * gini_nc,
             gini_out.data() + static_cast<size_t>(node) * gini_nb);
      }
      row.seconds = std::min(row.seconds, t.Seconds());
    }
    if (gini_tiers.empty()) {
      gini_ref = gini_out;
    } else {
      row.match = gini_out == gini_ref;  // bitwise: operator== on doubles
    }
    gini_tiers.push_back(row);
  }
  const double gini_scalar_s = gini_tiers.front().seconds;
  const double gini_simd_speedup = gini_scalar_s / gini_tiers.back().seconds;
  const bool gini_match =
      std::all_of(gini_tiers.begin(), gini_tiers.end(),
                  [](const GiniRow& r) { return r.match; });

  // Passes until the encode cost is recovered by the per-pass saving.
  const double amortize_passes =
      record_major_s > kernel_s
          ? encode_seconds / (record_major_s - kernel_s)
          : -1.0;

  // --- whole builds: the batch kernels vs the record-major scan -----
  std::string tree_codes;
  std::string tree_no_codes;
  for (const bool use_codes : {true, false}) {
    cmp::CmpOptions o = cmp::CmpFullOptions();
    o.base.prune = false;
    o.bin_code_cache = use_codes;
    (use_codes ? tree_codes : tree_no_codes) =
        cmp::SerializeTree(cmp::CmpBuilder(o).Build(train).tree);
  }
  const bool trees_match = tree_codes == tree_no_codes;
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  std::cout << "histogram accumulation over " << n << " records, "
            << train.num_attrs() << " attrs, q=100\n\n"
            << "record-major Add:     " << record_major_s << " s\n"
            << "attribute-major kernels: " << kernel_s << " s  ("
            << speedup << "x)\n"
            << "counts cell-identical: " << (counts_match ? "yes" : "NO")
            << "\n\n";
  const double gini_boundaries =
      static_cast<double>(gini_nodes) * gini_nb;
  for (const GiniRow& row : gini_tiers) {
    std::cout << "gini scan tier " << row.name << ": "
              << gini_boundaries / row.seconds << " boundaries/s ("
              << gini_scalar_s / row.seconds << "x scalar, bits "
              << (row.match ? "ok" : "MISMATCH") << ")\n";
  }
  std::cout << "SSE2 gini scan vs scalar: " << gini_simd_speedup
            << "x\n\n"
            << "bin-code encode: " << encode_seconds << " s, "
            << codes.MemoryBytes() << " bytes resident\n"
            << "encode amortized after " << amortize_passes
            << " scan passes\n\n"
            << "CMP trees with and without the code cache byte-identical: "
            << (trees_match ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"hist\",\n"
       << "  \"rows\": " << n << ",\n"
       << "  \"hardware_threads\": " << hardware_threads << ",\n"
       << "  \"record_major_rows_per_sec\": " << n / record_major_s << ",\n"
       << "  \"kernel_rows_per_sec\": " << n / kernel_s << ",\n"
       << "  \"kernel_speedup\": " << speedup << ",\n"
       << "  \"counts_match\": " << (counts_match ? "true" : "false")
       << ",\n";
  for (const GiniRow& row : gini_tiers) {
    json << "  \"gini_scan_" << row.name << "_boundaries_per_sec\": "
         << gini_boundaries / row.seconds << ",\n";
  }
  json << "  \"gini_simd_speedup\": " << gini_simd_speedup << ",\n"
       << "  \"gini_bits_match\": " << (gini_match ? "true" : "false")
       << ",\n"
       << "  \"code_cache_bytes\": " << codes.MemoryBytes() << ",\n"
       << "  \"encode_seconds\": " << encode_seconds << ",\n"
       << "  \"encode_amortize_passes\": " << amortize_passes << ",\n"
       << "  \"deterministic\": " << (trees_match ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return counts_match && trees_match && gini_match ? 0 : 1;
}
