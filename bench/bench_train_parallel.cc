// bench_train_parallel: wall-clock scaling of parallel CMP training.
//
// Trains CMP (full) on an Agrawal-generated set at num_threads 1, 2 and
// 4 and reports rows/sec per thread count plus the speedup over the
// single-threaded build. Because the determinism contract guarantees
// bit-identical trees for every thread count, the bench also verifies
// the serialized trees match before reporting — a scaling number for a
// wrong tree would be meaningless.
//
// Results go to stdout as a table and to BENCH_train.json (or argv[1])
// for trend tracking. CMP_BENCH_SCALE scales the training record count
// (default 0.1 => 100k rows; CMP_BENCH_SCALE=1 trains on 1M). On a
// single-core host the speedup hovers around 1.0x — the JSON records
// hardware_threads so trend tooling can tell "no scaling available"
// from "scaling regressed".

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cmp/cmp.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "tree/serialize.h"

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_train.json";
  const int64_t train_n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);

  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.perturbation = 0.3;
  gen.num_records = train_n;
  gen.seed = 11;
  const cmp::Dataset train = cmp::GenerateAgrawal(gen);

  struct Row {
    int threads;
    double seconds;
    double rows_per_sec;
  };
  std::vector<Row> rows;
  std::string reference;
  bool identical = true;
  for (const int threads : {1, 2, 4}) {
    cmp::CmpOptions opts = cmp::CmpFullOptions();
    opts.base.prune = false;
    opts.base.num_threads = threads;
    cmp::CmpBuilder builder(opts);
    // Two passes, keep the better: absorbs first-touch page faults
    // without the cost of a full warm-up build per thread count.
    double best = 0.0;
    std::string bytes;
    for (int pass = 0; pass < 2; ++pass) {
      cmp::Timer timer;
      const cmp::BuildResult result = builder.Build(train);
      const double rps = static_cast<double>(train_n) / timer.Seconds();
      if (rps > best) best = rps;
      bytes = cmp::SerializeTree(result.tree);
    }
    if (threads == 1) {
      reference = bytes;
    } else if (bytes != reference) {
      identical = false;
    }
    rows.push_back({threads, static_cast<double>(train_n) / best, best});
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const double base = rows.front().rows_per_sec;
  std::cout << "training " << train_n << " records, CMP (full), no prune\n\n";
  std::cout << "threads   rows/sec     delta       speedup\n";
  for (const Row& r : rows) {
    std::cout << r.threads << "         "
              << static_cast<int64_t>(r.rows_per_sec) << "      "
              << (r.rows_per_sec >= base ? "+" : "")
              << static_cast<int64_t>(r.rows_per_sec - base) << "      "
              << r.rows_per_sec / base << "x"
              << (static_cast<unsigned>(r.threads) > hw
                      ? "  (oversubscribed)"
                      : "")
              << "\n";
  }
  std::cout << "\ntrees bit-identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";
  std::cout << "hardware threads on this host: " << hw << "\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"train_parallel\",\n"
       << "  \"rows\": " << train_n << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"commit\": \"" << cmp::bench::GitCommit() << "\",\n"
       << "  \"deterministic\": " << (identical ? "true" : "false") << ",\n";
  for (const Row& r : rows) {
    json << "  \"train_mt" << r.threads << "_rows_per_sec\": "
         << r.rows_per_sec << ",\n";
    // Per-config delta vs the single-thread baseline, but only where the
    // hardware can actually run that many threads: an oversubscribed
    // config's delta measures scheduler thrash, not scaling, so it gets
    // a reason instead of a number.
    if (static_cast<unsigned>(r.threads) <= std::max(hw, 1u)) {
      json << "  \"train_mt" << r.threads << "_delta_rows_per_sec\": "
           << r.rows_per_sec - base << ",\n";
    } else {
      json << "  \"train_mt" << r.threads << "_delta_rows_per_sec\": null,\n"
           << "  \"train_mt" << r.threads << "_delta_reason\": \"only "
           << hw << " hardware thread(s): config is oversubscribed\",\n";
    }
  }
  // On a host without real parallelism a speedup ratio is noise, not a
  // regression signal; the reason string tells trend tooling (and anyone
  // reading the JSON) exactly why the number is missing.
  if (hw >= 2) {
    json << "  \"mt_scaling\": " << rows.back().rows_per_sec / base << ",\n"
         << "  \"mt_scaling_reason\": \"measured across " << hw
         << " hardware threads\"\n";
  } else {
    json << "  \"mt_scaling\": null,\n"
         << "  \"mt_scaling_reason\": \"only " << hw
         << " hardware thread(s): speedup ratios would measure scheduler "
            "noise, not scaling\"\n";
  }
  json << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return identical ? 0 : 1;
}
