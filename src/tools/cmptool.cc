// cmptool: command-line front end to the CMP classifier library.
//
// Subcommands:
//   gen   --function F2 --records 100000 --seed 42 --out data.cmpt
//   train --data data.cmpt --algo cmp|cmp-b|cmp-s|sprint|clouds|...
//         --out tree.txt [--intervals 100] [--no-prune] [--stats-json FILE]
//   eval  --data data.cmpt --tree tree.txt
//   predict --data data.cmpt --tree tree.txt --out preds.csv
//   compile --tree tree.txt[,tree2.txt...] --out model.cmpb
//   show  --tree tree.txt
//
// Algorithms are constructed through the TreeBuilder registry
// (tree/builder.h), so the --algo list tracks whatever is registered.
//
// Exit codes: 0 on success, 2 for bad arguments (unknown flag values,
// missing required flags), 3 for I/O failures (unreadable data,
// unwritable output), 4 when training itself fails.
//
// All file formats are this library's own (table_file.h, serialize.h).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/summary.h"
#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "datagen/drift.h"
#include "dist/dist.h"
#include "io/arff.h"
#include "io/block_source.h"
#include "io/csv.h"
#include "io/sketch_sidecar.h"
#include "stream/refit.h"
#include "stream/stream_train.h"
#include "common/timer.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "infer/ensemble.h"
#include "infer/model_io.h"
#include "io/table_file.h"
#include "tree/builder.h"
#include "tree/evaluate.h"
#include "tree/explain.h"
#include "tree/importance.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace {

using cmp::AgrawalFunction;

constexpr int kExitOk = 0;
constexpr int kExitBadArgs = 2;
constexpr int kExitIo = 3;
constexpr int kExitTrain = 4;

std::string AlgoList() {
  std::string out;
  for (const std::string& name : cmp::RegisteredTreeBuilders()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  cmptool gen   --function <F1..F10|Ff> --records N [--seed S]"
      " [--perturb P] --out FILE\n"
      "                [--drift-at N --drift-function F] switches the\n"
      "                labeling concept to F at record index N (sudden\n"
      "                drift; covariates are unchanged)\n"
      "                [--skip S] writes only records [S, N) of the\n"
      "                stream (split one seed into prefix + suffix)\n"
      "  cmptool train --data FILE --algo <" << AlgoList() << ">\n"
      "                [--intervals Q] [--no-prune] [--threads N]"
      " [--stats-json FILE]\n"
      "                [--rounds R] [--shrinkage s] [--weak-depth D]\n"
      "                [--holdout H] [--patience P]\n"
      "                (boosting knobs, --algo boost only; boost writes a\n"
      "                 cmp-forest file, or a .cmpb blob when --out ends\n"
      "                 in .cmpb)\n"
      "                [--stream [--block B] [--no-prefetch] [--no-codes]\n"
      "                 [--scan-shards S]] --out FILE\n"
      "                (--stream trains out-of-core from a .cmpt table in\n"
      "                 blocks of B records; cmp/cmp-b/cmp-s only.\n"
      "                 --no-codes falls back to the record-major\n"
      "                 scan; --scan-shards overrides the auto shard\n"
      "                 count. Same tree either way.)\n"
      "                [--workers K] trains with K forked worker\n"
      "                processes, each scanning one slice of a .cmpt\n"
      "                table (cmp/cmp-b/cmp-s only; combine with\n"
      "                 --stream --block B to bound worker memory).\n"
      "                Same tree bytes as a single-process build.\n"
      "                --algo cmp-stream trains in one sequential pass\n"
      "                per level from bounded quantile sketches (no\n"
      "                pre-pass sort; add --stream --block B to read a\n"
      "                .cmpt table out of core). [--sketch-capacity K]\n"
      "                [--sidecar FILE.cmps] persists per-leaf sketch\n"
      "                state for later refit. Incompatible with\n"
      "                --workers.\n"
      "  cmptool refit --data FILE --tree FILE --sidecar FILE.cmps\n"
      "                --out FILE [--sidecar-out FILE.cmps]\n"
      "                [--drift-threshold T] [--threads N]\n"
      "                [--stream [--block B]] [--stats-json FILE]\n"
      "                (routes new records to the leaves of a cmp-stream\n"
      "                 tree and regrows only the drifted ones; interior\n"
      "                 nodes are untouched)\n"
      "  cmptool eval  --data FILE --tree FILE\n"
      "  cmptool compile --tree FILE[,FILE...] --out FILE.cmpb\n"
      "                [--layout blocked|preorder]\n"
      "                (packs text trees into one mmap-able blob for\n"
      "                 cmpserve / predict)\n"
      "  cmptool predict --data FILE --tree FILE[,FILE...] [--out FILE]\n"
      "                (--tree also accepts one compiled .cmpb blob)\n"
      "                [--threads N] [--block B] [--probs] [--top-k K]\n"
      "                [--abstain P] [--vote majority|prob]\n"
      "  cmptool show  --tree FILE\n"
      "  cmptool dot   --tree FILE\n"
      "  cmptool explain --data FILE --tree FILE --record N\n"
      "  cmptool info  --data FILE\n"
      "  cmptool importance --tree FILE\n"
      "every command also accepts --kernel auto|scalar|avx2 to pin the\n"
      "ISA tier of the batch traversal kernels used when predicting\n"
      "(default auto; predictions are identical for every tier).\n"
      "Training kernels are not dispatched at run time.\n";
  return kExitBadArgs;
}

std::string GetFlag(int argc, char** argv, const std::string& name,
                    const std::string& def = "") {
  for (int i = 0; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return def;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 0; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

bool ParseFunction(const std::string& s, AgrawalFunction* out) {
  if (s == "Ff" || s == "ff" || s == "f") {
    *out = AgrawalFunction::kFunctionF;
    return true;
  }
  if (s.size() >= 2 && (s[0] == 'F' || s[0] == 'f')) {
    const int k = std::atoi(s.c_str() + 1);
    if (k >= 1 && k <= 10) {
      *out = static_cast<AgrawalFunction>(k);
      return true;
    }
  }
  return false;
}

// Loads a dataset by extension: .arff via the ARFF reader, .csv via
// schema inference, anything else via the binary table format.
bool LoadAnyDataset(const std::string& path, cmp::Dataset* out) {
  if (path.size() > 5 && path.substr(path.size() - 5) == ".arff") {
    return cmp::LoadArff(path, out);
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".csv") {
    return cmp::LoadCsvInferSchema(path, out);
  }
  return cmp::LoadTableFile(path, out);
}

// Writes the observer's JSON to `path` ("-" for stdout). Returns an exit
// code (kExitOk or kExitIo).
int WriteStatsJson(const cmp::TrainStatsCollector& collector,
                   const std::string& path) {
  if (path == "-") {
    std::cout << collector.ToJson();
    return kExitOk;
  }
  std::ofstream file(path);
  if (!file || !(file << collector.ToJson())) {
    std::cerr << "failed to write " << path << "\n";
    return kExitIo;
  }
  return kExitOk;
}

int CmdGen(int argc, char** argv) {
  AgrawalFunction function;
  if (!ParseFunction(GetFlag(argc, argv, "--function", "F2"), &function)) {
    std::cerr << "unknown function\n";
    return kExitBadArgs;
  }
  cmp::AgrawalOptions o;
  o.function = function;
  o.num_records = std::atoll(GetFlag(argc, argv, "--records", "100000").c_str());
  o.seed = std::atoll(GetFlag(argc, argv, "--seed", "42").c_str());
  o.perturbation = std::atof(GetFlag(argc, argv, "--perturb", "0").c_str());
  const std::string out = GetFlag(argc, argv, "--out");
  if (out.empty()) return Usage();
  cmp::Dataset ds;
  if (HasFlag(argc, argv, "--drift-at") ||
      HasFlag(argc, argv, "--drift-function")) {
    // Non-stationary stream: --function labels the prefix, the concept
    // switches to --drift-function at record --drift-at.
    if (!HasFlag(argc, argv, "--drift-at") ||
        !HasFlag(argc, argv, "--drift-function")) {
      std::cerr << "--drift-at and --drift-function must be given"
                   " together\n";
      return kExitBadArgs;
    }
    cmp::DriftOptions d;
    d.before = o.function;
    if (!ParseFunction(GetFlag(argc, argv, "--drift-function"), &d.after)) {
      std::cerr << "unknown drift function\n";
      return kExitBadArgs;
    }
    d.drift_at = std::atoll(GetFlag(argc, argv, "--drift-at").c_str());
    if (d.drift_at < 0 || d.drift_at > o.num_records) {
      std::cerr << "--drift-at must be in [0, --records]\n";
      return kExitBadArgs;
    }
    d.num_records = o.num_records;
    d.seed = o.seed;
    d.perturbation = o.perturbation;
    ds = cmp::GenerateDriftingAgrawal(d);
  } else {
    ds = cmp::GenerateAgrawal(o);
  }
  // --skip S writes only records [S, records) of the stream, so a
  // shell script can split one seeded stream into an exact prefix
  // (gen --records S) and suffix (gen --records N --skip S) — the
  // train-then-refit workflow without a separate slicing tool.
  const int64_t skip =
      std::atoll(GetFlag(argc, argv, "--skip", "0").c_str());
  if (skip < 0 || skip > o.num_records) {
    std::cerr << "--skip must be in [0, --records]\n";
    return kExitBadArgs;
  }
  if (skip > 0) {
    cmp::Dataset tail(ds.schema());
    std::vector<double> nv;
    std::vector<int32_t> cv;
    for (cmp::RecordId r = skip; r < ds.num_records(); ++r) {
      nv.clear();
      cv.clear();
      for (cmp::AttrId a = 0; a < ds.schema().num_attrs(); ++a) {
        if (ds.schema().attr(a).kind == cmp::AttrKind::kNumeric) {
          nv.push_back(ds.numeric(a, r));
        } else {
          cv.push_back(ds.categorical(a, r));
        }
      }
      tail.Append(nv, cv, ds.label(r));
    }
    ds = std::move(tail);
  }
  if (!cmp::SaveTableFile(ds, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  std::cout << "wrote " << ds.num_records() << " records ("
            << ds.TotalBytes() / (1024.0 * 1024.0) << " MB) to " << out
            << "\n";
  return kExitOk;
}

// Distributed training: forks K worker processes that each scan one
// contiguous slice of the .cmpt table and ship per-pass histogram state
// to this (coordinator) process over a versioned wire protocol. The
// rank-order merge makes the tree byte-identical to a single-process
// build for every K (that equality is CI-enforced).
int CmdTrainDist(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  const std::string algo = GetFlag(argc, argv, "--algo", "cmp");
  if (algo != "cmp" && algo != "cmp-b" && algo != "cmp-s") {
    std::cerr << "--workers supports cmp, cmp-b, cmp-s (got " << algo
              << ")\n";
    return kExitBadArgs;
  }
  cmp::dist::DistOptions d;
  d.num_workers = std::atoi(GetFlag(argc, argv, "--workers", "2").c_str());
  if (d.num_workers < 1) {
    std::cerr << "--workers must be >= 1\n";
    return kExitBadArgs;
  }
  d.num_threads = std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  // Without --stream each worker stages its whole slice as one block
  // (the in-memory profile); with it, --block bounds worker memory the
  // same way single-process streaming does.
  if (HasFlag(argc, argv, "--stream")) {
    d.block_records =
        std::atoll(GetFlag(argc, argv, "--block", "65536").c_str());
    if (d.block_records <= 0) {
      std::cerr << "--block must be > 0\n";
      return kExitBadArgs;
    }
  }
  // Unreadable tables are the I/O exit code, same as the streamed
  // path; DistTrain's exceptions then only mean training failures.
  if (cmp::TableBlockSource::Open(data, 1) == nullptr) {
    std::cerr << "failed to open " << data
              << " (must be a valid .cmpt table)\n";
    return kExitIo;
  }
  cmp::CmpOptions o = algo == "cmp"     ? cmp::CmpFullOptions()
                      : algo == "cmp-b" ? cmp::CmpBOptions()
                                        : cmp::CmpSOptions();
  o.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.base.num_threads = d.num_threads;
  o.intervals = std::atoi(GetFlag(argc, argv, "--intervals", "100").c_str());
  o.bin_code_cache = !HasFlag(argc, argv, "--no-codes");
  o.scan_shards =
      std::atoi(GetFlag(argc, argv, "--scan-shards", "0").c_str());
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.base.observer = &collector;
  cmp::BuildResult result;
  try {
    result = cmp::dist::DistTrain(data, o, d);
  } catch (const std::exception& e) {
    std::cerr << "training failed: " << e.what() << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << algo << " (distributed, workers=" << d.num_workers
          << "): " << result.stats.ToString() << "\n";
  if (!cmp::SaveTree(result.tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
          << out << "\n";
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

// Out-of-core training: records flow from the .cmpt table through
// block-pipelined scans instead of being loaded up front. Produces the
// same tree bytes as the in-memory path (that equality is CI-enforced).
int CmdTrainStreamed(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  const std::string algo = GetFlag(argc, argv, "--algo", "cmp");
  if (algo != "cmp" && algo != "cmp-b" && algo != "cmp-s") {
    std::cerr << "--stream supports cmp, cmp-b, cmp-s (got " << algo
              << ")\n";
    return kExitBadArgs;
  }
  const int64_t block =
      std::atoll(GetFlag(argc, argv, "--block", "65536").c_str());
  if (block <= 0) {
    std::cerr << "--block must be > 0\n";
    return kExitBadArgs;
  }
  auto source = cmp::TableBlockSource::Open(data, block);
  if (source == nullptr) {
    std::cerr << "failed to open " << data
              << " (must be a valid .cmpt table)\n";
    return kExitIo;
  }
  cmp::CmpOptions o = algo == "cmp"     ? cmp::CmpFullOptions()
                      : algo == "cmp-b" ? cmp::CmpBOptions()
                                        : cmp::CmpSOptions();
  o.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.base.num_threads =
      std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  o.intervals = std::atoi(GetFlag(argc, argv, "--intervals", "100").c_str());
  o.bin_code_cache = !HasFlag(argc, argv, "--no-codes");
  o.scan_shards =
      std::atoi(GetFlag(argc, argv, "--scan-shards", "0").c_str());
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.base.observer = &collector;
  cmp::CmpBuilder builder(o);
  cmp::BuildResult result;
  try {
    result =
        builder.BuildStreamed(*source, !HasFlag(argc, argv, "--no-prefetch"));
  } catch (const std::exception& e) {
    std::cerr << "training failed: " << e.what() << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << builder.name() << " (streamed, block=" << block
          << "): " << result.stats.ToString() << "\n";
  if (!cmp::SaveTree(result.tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
          << out << "\n";
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

// Streaming sketch-based training (--algo cmp-stream): per-node grids
// come from bounded quantile sketches filled in one sequential pass per
// tree level, so no pre-pass sort and no O(n) column buffer. With
// --stream --block B the records flow from the .cmpt table out of core;
// otherwise the dataset is loaded and wrapped in a zero-copy block
// source (same tree bytes either way — ingestion is a record-order fold
// regardless of the source's block size).
int CmdTrainCmpStream(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  // Single-process by contract: sketch state is a sequential fold over
  // the record stream, which is exactly what makes the tree independent
  // of thread/block/shard layout. Sharded ingestion would change the
  // merge order, so the flag combination is rejected rather than
  // silently ignored.
  if (HasFlag(argc, argv, "--workers")) {
    std::cerr << "--algo cmp-stream is incompatible with --workers"
                 " (streaming ingestion is a sequential fold; use --stream"
                 " --block B to bound memory instead)\n";
    return kExitBadArgs;
  }
  cmp::StreamOptions o;
  o.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.base.num_threads =
      std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  o.intervals = std::atoi(GetFlag(argc, argv, "--intervals", "100").c_str());
  o.sketch_capacity =
      std::atoi(GetFlag(argc, argv, "--sketch-capacity", "512").c_str());
  if (o.sketch_capacity < 8) {
    std::cerr << "--sketch-capacity must be >= 8\n";
    return kExitBadArgs;
  }
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.base.observer = &collector;

  std::unique_ptr<cmp::BlockSource> table_source;
  cmp::Dataset ds;
  std::unique_ptr<cmp::DatasetBlockSource> mem_source;
  cmp::BlockSource* source = nullptr;
  if (HasFlag(argc, argv, "--stream")) {
    const int64_t block =
        std::atoll(GetFlag(argc, argv, "--block", "65536").c_str());
    if (block <= 0) {
      std::cerr << "--block must be > 0\n";
      return kExitBadArgs;
    }
    table_source = cmp::TableBlockSource::Open(data, block);
    if (table_source == nullptr) {
      std::cerr << "failed to open " << data
                << " (must be a valid .cmpt table)\n";
      return kExitIo;
    }
    o.real_io = true;
    source = table_source.get();
  } else {
    if (!LoadAnyDataset(data, &ds)) {
      std::cerr << "failed to read " << data << "\n";
      return kExitIo;
    }
    mem_source = std::make_unique<cmp::DatasetBlockSource>(ds);
    source = mem_source.get();
  }

  cmp::BuildResult result;
  cmp::SketchSidecar sidecar;
  std::string error;
  if (!cmp::StreamTrain(*source, o, &result, &sidecar, &error)) {
    std::cerr << "training failed: " << error << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << "CMP-stream: " << result.stats.ToString() << "\n";
  if (!cmp::SaveTree(result.tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
          << out << "\n";
  const std::string sidecar_path = GetFlag(argc, argv, "--sidecar");
  if (!sidecar_path.empty()) {
    if (!cmp::SaveSketchSidecar(sidecar, sidecar_path, &error)) {
      std::cerr << "failed to write " << sidecar_path << ": " << error
                << "\n";
      return kExitIo;
    }
    summary << "sketch sidecar (" << sidecar.leaves.size()
            << " leaves) saved to " << sidecar_path << "\n";
  }
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

// Incremental refit: extends a cmp-stream tree with new records using
// the sketch sidecar instead of the original data. Only leaves whose
// class distribution drifted past --drift-threshold are regrown; the
// interior of the tree is untouched.
int CmdRefit(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  const std::string sidecar_path = GetFlag(argc, argv, "--sidecar");
  const std::string out = GetFlag(argc, argv, "--out");
  if (data.empty() || tree_path.empty() || sidecar_path.empty() ||
      out.empty()) {
    return Usage();
  }

  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  // Refit resumes the streaming trainer beneath individual leaves; a
  // boosted forest has no sidecar and its residual-coupled trees cannot
  // be extended one leaf at a time.
  if (trees.size() > 1) {
    std::cerr << "refit requires a single cmp-stream tree; " << tree_path
              << " holds a forest of " << trees.size()
              << " trees (boosted ensembles cannot be refit)\n";
    return kExitBadArgs;
  }
  cmp::DecisionTree tree = std::move(trees.front());

  cmp::SketchSidecar sidecar;
  std::string error;
  if (!cmp::LoadSketchSidecar(sidecar_path, &sidecar, &error)) {
    std::cerr << "failed to read " << sidecar_path << ": " << error << "\n";
    return kExitIo;
  }

  cmp::RefitOptions o;
  o.stream.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.stream.base.num_threads =
      std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  o.drift_threshold =
      std::atof(GetFlag(argc, argv, "--drift-threshold", "0.15").c_str());
  if (o.drift_threshold < 0.0 || o.drift_threshold > 1.0) {
    std::cerr << "--drift-threshold must be in [0, 1]\n";
    return kExitBadArgs;
  }
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.stream.base.observer = &collector;

  std::unique_ptr<cmp::BlockSource> table_source;
  cmp::Dataset ds;
  std::unique_ptr<cmp::DatasetBlockSource> mem_source;
  cmp::BlockSource* source = nullptr;
  if (HasFlag(argc, argv, "--stream")) {
    const int64_t block =
        std::atoll(GetFlag(argc, argv, "--block", "65536").c_str());
    if (block <= 0) {
      std::cerr << "--block must be > 0\n";
      return kExitBadArgs;
    }
    table_source = cmp::TableBlockSource::Open(data, block);
    if (table_source == nullptr) {
      std::cerr << "failed to open " << data
                << " (must be a valid .cmpt table)\n";
      return kExitIo;
    }
    o.stream.real_io = true;
    source = table_source.get();
  } else {
    if (!LoadAnyDataset(data, &ds)) {
      std::cerr << "failed to read " << data << "\n";
      return kExitIo;
    }
    mem_source = std::make_unique<cmp::DatasetBlockSource>(ds);
    source = mem_source.get();
  }

  cmp::BuildStats build_stats;
  cmp::RefitStats refit_stats;
  if (!cmp::RefitTree(&tree, &sidecar, *source, o, &build_stats,
                      &refit_stats, &error)) {
    std::cerr << "refit failed: " << error << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << "refit: " << refit_stats.records << " new records, "
          << refit_stats.leaves_touched << " leaves touched, "
          << refit_stats.leaves_regrown << " regrown; "
          << build_stats.ToString() << "\n";
  if (!cmp::SaveTree(tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << tree.num_nodes() << " nodes saved to " << out
          << "\n";
  // The updated sidecar keeps refit composable: by default it replaces
  // the input sidecar so the next refit picks up where this one ended.
  const std::string sidecar_out =
      GetFlag(argc, argv, "--sidecar-out", sidecar_path);
  if (!cmp::SaveSketchSidecar(sidecar, sidecar_out, &error)) {
    std::cerr << "failed to write " << sidecar_out << ": " << error << "\n";
    return kExitIo;
  }
  summary << "sketch sidecar (" << sidecar.leaves.size()
          << " leaves) saved to " << sidecar_out << "\n";
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

int CmdTrain(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  const std::string algo = GetFlag(argc, argv, "--algo", "cmp");
  if (data.empty() || out.empty()) return Usage();
  // cmp-stream owns its flag handling (and rejects --workers itself,
  // with a message that explains why sharded ingestion is out).
  if (algo == "cmp-stream") return CmdTrainCmpStream(argc, argv);
  if (HasFlag(argc, argv, "--workers")) return CmdTrainDist(argc, argv);
  if (HasFlag(argc, argv, "--stream")) return CmdTrainStreamed(argc, argv);
  cmp::BuilderConfig config;
  config.base.prune = !HasFlag(argc, argv, "--no-prune");
  config.base.num_threads =
      std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  config.intervals =
      std::atoi(GetFlag(argc, argv, "--intervals", "100").c_str());
  config.boost.rounds =
      std::atoi(GetFlag(argc, argv, "--rounds", "50").c_str());
  config.boost.shrinkage =
      std::atof(GetFlag(argc, argv, "--shrinkage", "0.1").c_str());
  config.boost.weak_depth =
      std::atoi(GetFlag(argc, argv, "--weak-depth", "6").c_str());
  config.boost.holdout =
      std::atof(GetFlag(argc, argv, "--holdout", "0.2").c_str());
  config.boost.patience =
      std::atoi(GetFlag(argc, argv, "--patience", "5").c_str());
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) config.base.observer = &collector;
  auto builder = cmp::MakeTreeBuilder(algo, config);
  if (builder == nullptr) {
    std::cerr << "unknown algorithm " << algo << " (have: " << AlgoList()
              << ")\n";
    return kExitBadArgs;
  }
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  cmp::BuildResult result;
  try {
    result = builder->Build(ds);
  } catch (const std::exception& e) {
    std::cerr << "training failed: " << e.what() << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << builder->name() << ": " << result.stats.ToString() << "\n";
  // Multi-tree results (boost) go out as a cmp-forest file; an --out
  // ending in .cmpb asks for the compiled blob directly (any algorithm).
  const bool blob_out =
      out.size() > 5 && out.substr(out.size() - 5) == ".cmpb";
  if (blob_out) {
    std::vector<const cmp::DecisionTree*> ptrs;
    if (result.forest.empty()) {
      ptrs.push_back(&result.tree);
    } else {
      for (const cmp::DecisionTree& t : result.forest) ptrs.push_back(&t);
    }
    std::string error;
    if (!cmp::SaveModelBlob(ptrs, out, &error)) {
      std::cerr << "failed to write " << out << ": " << error << "\n";
      return kExitIo;
    }
    summary << ptrs.size() << " compiled tree(s) saved to " << out << "\n";
  } else if (result.forest.size() > 1) {
    if (!cmp::SaveForest(result.forest, out)) {
      std::cerr << "failed to write " << out << "\n";
      return kExitIo;
    }
    summary << result.forest.size() << " trees ("
            << result.stats.tree_nodes << " nodes) saved to " << out << "\n";
  } else {
    if (!cmp::SaveTree(result.tree, out)) {
      std::cerr << "failed to write " << out << "\n";
      return kExitIo;
    }
    summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
            << out << "\n";
  }
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

int CmdEval(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (data.empty() || tree_path.empty()) return Usage();
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  if (trees.size() == 1) {
    std::cout << cmp::Evaluate(trees[0], ds).ToString(ds.schema());
    return kExitOk;
  }
  // A cmp-forest (boost output): score with the probability vote the
  // leaf encoding is built for and tabulate the same way.
  const cmp::BatchResult batch =
      cmp::EnsemblePredictor::Compile(trees, cmp::VoteKind::kAverageProb)
          .Predict(ds);
  cmp::Evaluation eval;
  const int nc = ds.schema().num_classes();
  eval.confusion.assign(nc, std::vector<int64_t>(nc, 0));
  for (cmp::RecordId r = 0; r < ds.num_records(); ++r) {
    const cmp::ClassId pred = batch.labels[r];
    ++eval.total;
    eval.correct += pred == ds.label(r) ? 1 : 0;
    ++eval.confusion[ds.label(r)][pred];
  }
  std::cout << eval.ToString(ds.schema());
  return kExitOk;
}

// Batch scoring through the compiled inference path: one tree gives a
// BatchPredictor, a comma-separated list gives a voting ensemble.
// Predictions go to --out as CSV (stdout when omitted, with the summary
// moved to stderr so the two streams stay separable).
// Packs one or more text trees into a single .cmpb blob. The blob is
// the serving format: cmpserve mmaps it, and predict accepts it
// directly.
int CmdCompile(int argc, char** argv) {
  const std::string tree_arg = GetFlag(argc, argv, "--tree");
  const std::string out = GetFlag(argc, argv, "--out");
  if (tree_arg.empty() || out.empty()) return Usage();

  std::vector<cmp::DecisionTree> trees;
  std::stringstream paths(tree_arg);
  for (std::string path; std::getline(paths, path, ',');) {
    // Each path may be a single tree or a whole cmp-forest (boost
    // output); forests flatten into the blob's tree list in order.
    std::vector<cmp::DecisionTree> loaded;
    if (!cmp::LoadTrees(path, &loaded)) {
      std::cerr << "failed to read " << path << "\n";
      return kExitIo;
    }
    for (cmp::DecisionTree& t : loaded) trees.push_back(std::move(t));
  }
  if (trees.empty()) return Usage();

  std::vector<const cmp::DecisionTree*> ptrs;
  ptrs.reserve(trees.size());
  for (const cmp::DecisionTree& t : trees) ptrs.push_back(&t);
  cmp::PackOptions pack;
  const std::string layout = GetFlag(argc, argv, "--layout", "blocked");
  if (layout == "preorder") {
    pack.layout = cmp::NodeLayout::kPreorder;
  } else if (layout != "blocked") {
    std::cerr << "--layout wants blocked|preorder, got '" << layout << "'\n";
    return Usage();
  }
  std::string error;
  if (!cmp::SaveModelBlob(ptrs, pack, out, &error)) {
    std::cerr << "failed to compile " << out << ": " << error << "\n";
    return kExitIo;
  }
  std::cerr << "compiled " << trees.size() << " tree(s) -> " << out << " ("
            << cmp::NodeLayoutName(pack.layout) << " layout)\n";
  return kExitOk;
}

int CmdPredict(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_arg = GetFlag(argc, argv, "--tree");
  const std::string out_path = GetFlag(argc, argv, "--out");
  if (data.empty() || tree_arg.empty()) return Usage();

  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }

  // The model is either comma-separated text trees or one compiled
  // .cmpb blob (cmptool compile's output).
  const bool is_blob = tree_arg.size() > 5 &&
                       tree_arg.substr(tree_arg.size() - 5) == ".cmpb";
  std::vector<cmp::DecisionTree> trees;
  cmp::CompiledModel model;
  if (is_blob) {
    std::string error;
    if (!cmp::LoadCompiledModel(tree_arg, &model, &error)) {
      std::cerr << "failed to read " << tree_arg << ": " << error << "\n";
      return kExitIo;
    }
  } else {
    std::stringstream paths(tree_arg);
    for (std::string path; std::getline(paths, path, ',');) {
      std::vector<cmp::DecisionTree> loaded;
      if (!cmp::LoadTrees(path, &loaded)) {
        std::cerr << "failed to read " << path << "\n";
        return kExitIo;
      }
      for (cmp::DecisionTree& t : loaded) trees.push_back(std::move(t));
    }
    if (trees.empty()) return Usage();
  }

  cmp::PredictOptions opts;
  opts.num_threads = std::atoi(GetFlag(argc, argv, "--threads", "1").c_str());
  opts.block_size = std::atoll(GetFlag(argc, argv, "--block", "2048").c_str());
  opts.want_probs = HasFlag(argc, argv, "--probs");
  opts.top_k = std::atoi(GetFlag(argc, argv, "--top-k", "1").c_str());
  opts.abstain_threshold =
      std::atof(GetFlag(argc, argv, "--abstain", "0").c_str());
  const std::string vote_name = GetFlag(argc, argv, "--vote", "majority");
  if (vote_name != "majority" && vote_name != "prob") {
    std::cerr << "unknown vote kind " << vote_name << "\n";
    return kExitBadArgs;
  }

  const cmp::Schema& model_schema =
      is_blob ? *model.schema : trees.front().schema();
  // The predictors clamp top_k to the class count internally; clamp here
  // too so the CSV writer below indexes the returned topk table with the
  // same k the predictor sized it with.
  opts.top_k = std::min(opts.top_k, model_schema.num_classes());
  const cmp::VoteKind vote = vote_name == "prob"
                                 ? cmp::VoteKind::kAverageProb
                                 : cmp::VoteKind::kMajority;
  cmp::Timer timer;
  cmp::BatchResult result;
  if (is_blob && model.num_trees() == 1) {
    result = cmp::BatchPredictor(&model.trees.front(), opts).Predict(ds);
  } else if (is_blob) {
    result = cmp::EnsemblePredictor(model.trees, vote).Predict(ds, opts);
  } else if (trees.size() == 1) {
    const cmp::CompiledTree compiled = cmp::CompiledTree::Compile(trees[0]);
    result = cmp::BatchPredictor(&compiled, opts).Predict(ds);
  } else {
    const cmp::EnsemblePredictor ensemble =
        cmp::EnsemblePredictor::Compile(trees, vote);
    result = ensemble.Predict(ds, opts);
  }
  const double seconds = timer.Seconds();

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "failed to write " << out_path << "\n";
      return kExitIo;
    }
  }
  std::ostream& csv = out_path.empty() ? std::cout : file;
  std::ostream& summary = out_path.empty() ? std::cerr : std::cout;

  auto class_name = [&model_schema](cmp::ClassId c) -> std::string {
    if (c == cmp::kInvalidClass) return "?";
    return c < model_schema.num_classes()
               ? model_schema.class_name(c)
               : "class" + std::to_string(c);
  };

  csv << "record,actual,predicted,correct";
  if (opts.want_probs) {
    for (cmp::ClassId c = 0; c < model_schema.num_classes(); ++c) {
      csv << ",prob_" << model_schema.class_name(c);
    }
  }
  if (opts.top_k > 1) {
    for (int k = 0; k < opts.top_k; ++k) csv << ",top" << (k + 1);
  }
  csv << '\n';
  const int32_t nc = model_schema.num_classes();
  int64_t correct = 0;
  for (cmp::RecordId r = 0; r < ds.num_records(); ++r) {
    const cmp::ClassId actual = ds.label(r);
    const cmp::ClassId predicted = result.labels[r];
    if (actual == predicted) ++correct;
    csv << r << ',' << ds.schema().class_name(actual) << ','
        << class_name(predicted) << ',' << (actual == predicted ? 1 : 0);
    if (opts.want_probs) {
      for (int32_t c = 0; c < nc; ++c) {
        csv << ',' << result.probs[static_cast<size_t>(r) * nc + c];
      }
    }
    if (opts.top_k > 1) {
      for (int k = 0; k < opts.top_k; ++k) {
        csv << ',' << class_name(result.topk[static_cast<size_t>(r) *
                                             opts.top_k + k]);
      }
    }
    csv << '\n';
  }

  const double accuracy =
      ds.num_records() == 0
          ? 0.0
          : static_cast<double>(correct) /
                static_cast<double>(ds.num_records());
  char acc_buf[32];
  std::snprintf(acc_buf, sizeof(acc_buf), "%.4f", accuracy);
  summary << "accuracy: " << acc_buf << " (" << correct << "/"
          << ds.num_records() << ")\n";
  if (result.num_abstained > 0) {
    summary << "abstained: " << result.num_abstained << "\n";
  }
  summary << "scored " << ds.num_records() << " records with "
          << (is_blob ? static_cast<size_t>(model.num_trees())
                      : trees.size())
          << " tree(s) in " << seconds << "s ("
          << static_cast<int64_t>(ds.num_records() / std::max(seconds, 1e-9))
          << " rows/s, " << opts.num_threads << " thread(s), "
          << cmp::KernelIsaName(cmp::ActiveKernelIsa()) << " kernel)\n";
  return kExitOk;
}

int CmdDot(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  std::cout << cmp::ToDot(tree);
  return kExitOk;
}

int CmdExplain(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  const int64_t record = std::atoll(GetFlag(argc, argv, "--record", "0").c_str());
  if (data.empty() || tree_path.empty()) return Usage();
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  if (record < 0 || record >= ds.num_records()) {
    std::cerr << "record out of range\n";
    return kExitBadArgs;
  }
  const cmp::Explanation why = cmp::Explain(tree, ds, record);
  std::cout << "record " << record << " (actual: "
            << ds.schema().class_name(ds.label(record)) << ")\n"
            << why.ToString(ds.schema());
  return kExitOk;
}

int CmdInfo(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  if (data.empty()) return Usage();
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  std::cout << cmp::Summarize(ds).ToString(ds.schema());
  return kExitOk;
}

int CmdImportance(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  const std::vector<double> importance = cmp::GiniImportance(tree);
  std::cout << cmp::ImportanceToString(tree, importance);
  return kExitOk;
}

int CmdShow(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  if (trees.size() == 1) {
    std::cout << trees[0].ToString();
    return kExitOk;
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    std::cout << "=== tree " << (i + 1) << "/" << trees.size() << " ===\n"
              << trees[i].ToString();
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // --kernel applies to every subcommand; resolve it before any work
  // touches the dispatch tables. Rejecting an unknown or unsupported
  // tier here keeps "bad flag" failures on the bad-args exit code.
  std::string kernel_error;
  if (!cmp::SelectKernelIsaByName(
          GetFlag(argc - 2, argv + 2, "--kernel", "auto"), &kernel_error)) {
    std::cerr << kernel_error << "\n";
    return kExitBadArgs;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "train") return CmdTrain(argc - 2, argv + 2);
  if (cmd == "refit") return CmdRefit(argc - 2, argv + 2);
  if (cmd == "eval") return CmdEval(argc - 2, argv + 2);
  if (cmd == "compile") return CmdCompile(argc - 2, argv + 2);
  if (cmd == "predict") return CmdPredict(argc - 2, argv + 2);
  if (cmd == "show") return CmdShow(argc - 2, argv + 2);
  if (cmd == "dot") return CmdDot(argc - 2, argv + 2);
  if (cmd == "explain") return CmdExplain(argc - 2, argv + 2);
  if (cmd == "info") return CmdInfo(argc - 2, argv + 2);
  if (cmd == "importance") return CmdImportance(argc - 2, argv + 2);
  return Usage();
}
