#ifndef CMP_CMP_BUILD_DRIVER_H_
#define CMP_CMP_BUILD_DRIVER_H_

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cmp/frontier.h"
#include "cmp/options.h"
#include "cmp/pairs.h"
#include "cmp/record_store.h"
#include "cmp/scan_pass.h"
#include "cmp/split_plan.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "hist/grid_builder.h"
#include "hist/grids.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/builder.h"
#include "tree/observer.h"

namespace cmp {

// ---------------------------------------------------------------------
// The build driver. The heavy lifting lives in the pipeline layers:
//   frontier.h    — pending/segment lifecycle, routing, mirrors
//   scan_pass.h   — one sharded, blocked pass over the records
//   split_plan.h  — bundle analysis, split decisions, tree growth
// The driver owns the shared state (grids, record->node map, frontier
// queues), sequences the passes, and reports per-pass observations.
//
// Templated over the record store (record_store.h): the in-memory path
// instantiates it with InMemoryStore + a zero-copy DatasetBlockSource,
// the out-of-core path with StreamStore + a TableBlockSource.
//
// The scan itself runs behind the PassScanner seam (scan_pass.h): by
// default the driver's own local ScanPass, or — when a `remote` scanner
// is injected — the distributed coordinator (src/dist/), which ships the
// frontier skeleton to worker processes and merges their histograms back
// in rank order. Everything above the seam (grids, planning, resolve,
// tree growth) is the same code either way, which is what makes the
// distributed tree byte-identical to the single-process one.

template <class Store>
class CmpBuild {
 public:
  CmpBuild(Store& store, BlockSource& source, const CmpOptions& options,
           ThreadPool* pool, BuildResult* result,
           PassScanner* remote = nullptr)
      : store_(store),
        source_(source),
        schema_(store.schema()),
        options_(options),
        policy_(VariantPolicy::For(options.variant)),
        pool_(pool),
        result_(result),
        tracker_(&result->stats),
        remote_(remote) {}

  void Run();

 private:
  void BuildGrids(int64_t n);
  void BuildCodes();

  Store& store_;
  BlockSource& source_;
  const Schema& schema_;
  CmpOptions options_;
  VariantPolicy policy_;
  ThreadPool* pool_;  // borrowed, never null (CmpBuilder::Build guarantees)
  BuildResult* result_;
  ScanTracker tracker_;
  PassScanner* remote_;  // borrowed; null = scan locally

  std::vector<IntervalGrid> grids_;
  // interior_[a][i] is nonzero iff grid interval i of numeric attribute a
  // contains at least two distinct values in the training set — i.e. an
  // *interior* split point can exist there. Tie buckets (e.g. the spike
  // of commission == 0 in the Agrawal data) collapse to a single value,
  // so the gradient estimate must be clamped to the interval's edge
  // ginis and the interval must never be selected as alive.
  std::vector<std::vector<char>> interior_;
  std::vector<AttrId> numeric_attrs_;
  std::vector<NodeId> nid_;

  // Pass-invariant bin-code cache (hist/bin_codes.h): every attribute's
  // interval index / categorical value, encoded once right after grid
  // construction, read by every scan pass after it. Disabled (and empty)
  // when the option is off, when the build finishes entirely in memory
  // before the first histogram scan, or when an attribute needs more
  // than 16 bits per code.
  BinCodeCache codes_;

  // Optional all-pairs extension: the best root-level pairwise linear
  // relation discovered during the initial pass (empty if disabled or
  // none found).
  std::vector<PairRelation> root_relations_;

  // This round's work and the work split resolution generates for the
  // next scan.
  FrontierQueues work_;
  FrontierQueues next_;
};

// Discretization pass: one column read and ONE sort per numeric
// attribute serve both the quantile grid and the interior-splittable
// marks, behind the AttrGridBuilder seam (hist/grid_builder.h). The
// batch driver always uses the exact full-sort builder: grids depend
// only on the sorted value multiset, so the streamed and in-memory
// builds produce identical grids — the first link of the
// streamed-equals-in-memory determinism argument. (The sketch builder
// behind the same seam powers the cmp-stream trainer, which has its
// own driver in src/stream/.)
template <class Store>
void CmpBuild<Store>::BuildGrids(int64_t n) {
  tracker_.ChargeScan(n, schema_);
  grids_.assign(schema_.num_attrs(), IntervalGrid());
  interior_.assign(schema_.num_attrs(), {});
  auto build_attr = [&](AttrId a) {
    std::vector<double> column;
    if (!source_.ReadNumericColumn(a, &column)) {
      throw std::runtime_error("cmp: failed to read numeric column");
    }
    ExactAttrGridBuilder builder;
    if (codes_.enabled()) {
      // When the bin-code cache is on, the same column read feeds both
      // the grid build (sorted copy) and the code encoding (record
      // order) — no extra pass over the data.
      builder.Add(column.data(), static_cast<int64_t>(column.size()));
    } else {
      builder.AddOwned(std::move(column));
    }
    AttrGridResult built =
        builder.Finish(options_.intervals, options_.discretization);
    grids_[a] = std::move(built.grid);
    interior_[a] = std::move(built.interior);
    if (codes_.enabled()) {
      codes_.EncodeNumericColumn(a, grids_[a], column);
    }
  };
  if (pool_->parallelism() > 1 && numeric_attrs_.size() > 1) {
    pool_->ParallelFor(static_cast<int64_t>(numeric_attrs_.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           build_attr(numeric_attrs_[i]);
                         }
                       });
  } else {
    for (AttrId a : numeric_attrs_) build_attr(a);
  }
  if (options_.discretization == Discretization::kEqualDepth) {
    for (size_t i = 0; i < numeric_attrs_.size(); ++i) {
      tracker_.ChargeSort(n);
    }
  }
}

// Completes the bin-code cache after the grids exist: the label column
// and the categorical columns (numeric columns were encoded inside
// BuildGrids, riding the discretization pass's column reads). For the
// out-of-core build this is the compact resident sidecar of the streamed
// table — 1-2 bytes per value instead of 8 — so it is charged against
// the peak-memory high-water mark.
template <class Store>
void CmpBuild<Store>::BuildCodes() {
  if (!codes_.enabled()) return;
  {
    std::vector<ClassId> labels;
    if (!source_.ReadLabels(&labels)) {
      throw std::runtime_error("cmp: failed to read label column");
    }
    codes_.SetLabels(std::move(labels));
  }
  const std::vector<AttrId> cat_attrs = schema_.CategoricalAttrs();
  auto encode_attr = [&](AttrId a) {
    std::vector<int32_t> column;
    if (!source_.ReadCategoricalColumn(a, &column)) {
      throw std::runtime_error("cmp: failed to read categorical column");
    }
    codes_.EncodeCategoricalColumn(a, column);
  };
  if (pool_->parallelism() > 1 && cat_attrs.size() > 1) {
    pool_->ParallelFor(static_cast<int64_t>(cat_attrs.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           encode_attr(cat_attrs[i]);
                         }
                       });
  } else {
    for (AttrId a : cat_attrs) encode_attr(a);
  }
  tracker_.NotePeakMemory(codes_.MemoryBytes());
}

template <class Store>
void CmpBuild<Store>::Run() {
  Timer timer;
  const int64_t n = source_.num_records();
  result_->tree = DecisionTree(schema_);
  TrainObserver* const observer = options_.base.observer;

  // Streamed builds report the bytes the scanner actually pulled from
  // the file instead of the disk-simulation charges.
  if (Store::kStreaming) tracker_.set_real_io(true);
  int64_t real_bytes_charged = 0;
  auto charge_real_bytes = [&] {
    if (!Store::kStreaming) return;
    const int64_t total = source_.bytes_read();
    tracker_.ChargeRealBytes(total - real_bytes_charged);
    real_bytes_charged = total;
  };

  if (observer != nullptr) {
    observer->OnBuildStart(policy_.display_name, n);
  }

  TreeNode root;
  root.depth = 0;
  if (const Dataset* full = store_.dataset()) {
    root.class_counts = full->ClassCounts();
  } else {
    std::vector<ClassId> labels;
    if (!source_.ReadLabels(&labels)) {
      throw std::runtime_error("cmp: failed to read label column");
    }
    root.class_counts.assign(schema_.num_classes(), 0);
    for (ClassId c : labels) {
      // The in-memory loader validates labels on load; the streamed path
      // sees raw column bytes, so a corrupt table must fail here rather
      // than index out of bounds.
      if (c < 0 || c >= schema_.num_classes()) {
        throw std::runtime_error("cmp: label out of range (corrupt table?)");
      }
      root.class_counts[c]++;
    }
  }
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result_->tree.AddNode(std::move(root));
  if (n == 0) {
    result_->tree.MakeLeaf(root_id);
    result_->stats.wall_seconds = timer.Seconds();
    if (observer != nullptr) observer->OnBuildEnd(result_->stats);
    return;
  }

  numeric_attrs_ = schema_.NumericAttrs();
  // A build that finishes entirely in memory (root collected before any
  // histogram scan) never reads a bin code; skip the cache outright.
  const bool collect_only = options_.base.in_memory_threshold > 0 &&
                            n <= options_.base.in_memory_threshold;
  if (options_.bin_code_cache && !collect_only) {
    codes_ = BinCodeCache(schema_, n, options_.intervals);
  }
  BuildGrids(n);
  BuildCodes();
  charge_real_bytes();

  if (options_.all_pairs_root && policy_.search_linear) {
    // All-pairs discovery needs simultaneous random access to every
    // numeric column; it is an in-memory-only extension (off by
    // default) and is skipped for streamed builds.
    if (const Dataset* full = store_.dataset()) {
      PairDiscoveryOptions pd;
      pd.min_gain = options_.linear_gain;
      root_relations_ = DiscoverLinearRelations(*full, pd, &tracker_);
    }
  }

  // With a remote scanner the record->node map lives in the workers
  // (each over its own slice); the coordinator never routes a record.
  if (remote_ == nullptr) nid_.assign(n, root_id);

  // The three pipeline layers, wired over the shared state above.
  const SplitPlanner planner(schema_, options_, policy_, grids_, interior_,
                             numeric_attrs_, pool_);
  SplitExecutor<Store> executor(planner, store_, options_, result_,
                                &tracker_, pool_, &next_, &codes_);
  executor.set_root_relations(&root_relations_);
  ScanPass<Store> scan(store_, source_, grids_, result_->tree, nid_, pool_,
                       &tracker_, &codes_, options_.scan_shards);
  PassScanner* const scanner =
      remote_ != nullptr ? remote_ : static_cast<PassScanner*>(&scan);
  {
    PassScanContext ctx;
    ctx.grids = &grids_;
    ctx.tree = &result_->tree;
    ctx.num_records = n;
    ctx.tracker = &tracker_;
    scanner->Prepare(ctx);
  }

  if (options_.base.in_memory_threshold > 0 &&
      n <= options_.base.in_memory_threshold) {
    work_.collect.push_back({root_id, {}});
  } else if (planner.bivariate()) {
    const AttrId x = numeric_attrs_.front();
    work_.fresh.push_back(
        {root_id, HistBundle::MakeBivariate(schema_, grids_, x, 0,
                                            grids_[x].num_intervals())});
  } else {
    work_.fresh.push_back(
        {root_id, HistBundle::MakeUnivariate(schema_, grids_)});
  }

  int pass_index = 0;
  while (!work_.Empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(work_.fresh.size());
    po.frontier_pending = static_cast<int64_t>(work_.pending.size());
    po.frontier_collect = static_cast<int64_t>(work_.collect.size());
    const int64_t bytes_before = result_->stats.bytes_read;

    Timer scan_timer;
    scanner->RunPass(work_, &po);
    charge_real_bytes();
    po.scan_seconds = scan_timer.Seconds();

    if (observer != nullptr) {
      for (const PendingWork& w : work_.pending) {
        po.alive_intervals += CountAliveIntervals(*w.pending);
        po.buffered_records += CountBufferedRecords(*w.pending);
        po.buffer_bytes += w.pending->MemoryBytes();
      }
      if constexpr (Store::kStreaming) {
        po.buffer_bytes += store_.stash_bytes();
      }
    }

    // Finish small partitions in memory (grafted back in work-list
    // order; see SplitExecutor::FinishCollects for the determinism
    // argument).
    Timer finish_timer;
    executor.FinishCollects(work_.collect);
    po.finish_seconds = finish_timer.Seconds();

    next_.Clear();
    Timer plan_timer;

    // Frontier phase A: every fresh node's analysis is a pure function
    // of its (now complete) bundle, and every pending's exact split a
    // pure function of its own buffer, segments and node counts, so the
    // whole frontier is worked out in parallel. Phase B below applies the
    // results serially in work-list order — node creation order, stats,
    // and tie-breaking are exactly the serial build's. The tree is
    // read-only until phase B. Pendings go first: their buffer sorts are
    // the longest tasks.
    const size_t num_pending = work_.pending.size();
    std::vector<std::unique_ptr<BundleAnalysis>> pre(work_.fresh.size());
    pool_->ParallelFor(
        static_cast<int64_t>(num_pending + work_.fresh.size()), 1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            if (static_cast<size_t>(i) < num_pending) {
              PendingWork& w = work_.pending[i];
              executor.PrepareResolve(
                  w.pending.get(), result_->tree.node(w.node).class_counts);
              continue;
            }
            FreshWork& w = work_.fresh[i - num_pending];
            const std::vector<int64_t> totals = w.bundle.ClassTotals();
            if (executor.WouldAnalyze(w.node, totals)) {
              pre[i - num_pending] = std::make_unique<BundleAnalysis>(
                  planner.Analyze(w.bundle, totals));
            }
          }
        });

    for (size_t i = 0; i < work_.fresh.size(); ++i) {
      executor.GrowNode(work_.fresh[i].node, std::move(work_.fresh[i].bundle),
                        /*predicted=*/true, pre[i].get());
    }
    for (PendingWork& w : work_.pending) {
      const int depth = result_->tree.node(w.node).depth;
      executor.ResolvePending(w.node, w.pending.get(), depth);
    }
    po.plan_seconds = plan_timer.Seconds();

    if constexpr (Store::kStreaming) {
      // Every retained record has been consumed (collect subtrees built,
      // pending splits resolved); the stash restarts empty next round.
      store_.ClearStash();
    }

    work_ = std::move(next_);
    next_.Clear();

    po.bytes_read = result_->stats.bytes_read - bytes_before;
    po.tree_nodes = result_->tree.num_nodes();
    if (observer != nullptr) observer->OnPass(po);
  }

  if (options_.base.prune) PruneTreeMdl(&result_->tree);
  result_->stats.tree_nodes = result_->tree.num_nodes();
  result_->stats.tree_depth = result_->tree.Depth();
  result_->stats.wall_seconds = timer.Seconds();
  if (observer != nullptr) observer->OnBuildEnd(result_->stats);
}

}  // namespace cmp

#endif  // CMP_CMP_BUILD_DRIVER_H_
