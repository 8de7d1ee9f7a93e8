#ifndef CMP_CMP_SCAN_PASS_H_
#define CMP_CMP_SCAN_PASS_H_

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cmp/frontier.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"
#include "io/block_source.h"
#include "io/scan.h"
#include "tree/observer.h"
#include "tree/tree.h"

namespace cmp {

/// Scan execution of the CMP build pipeline: one full pass over the
/// training records, routing every record through the (read-only) tree
/// into exactly one frontier sink — a fresh histogram bundle, a pending
/// split, or a collect list. Handles the sharded-parallel and blocked-
/// streaming mechanics (per-shard empty mirrors merged in shard order,
/// per-block stash of records that must outlive eviction) behind a
/// single Run() call; what the sinks MEAN is the business of the
/// frontier and split-plan layers.

/// What a pass scanner learns once the driver has built its grids and
/// seeded its tree — everything a remote transport must broadcast to
/// workers before the first pass.
struct PassScanContext {
  const std::vector<IntervalGrid>* grids = nullptr;
  const DecisionTree* tree = nullptr;
  int64_t num_records = 0;
  // The build's I/O tracker; a remote scanner charges the bytes its
  // workers report reading so streamed-build accounting stays honest.
  ScanTracker* tracker = nullptr;
};

/// The transport seam of the build driver: one interface between "run a
/// scan pass over the frontier" and wherever the records actually are.
/// The local ScanPass below implements it over a record store; the
/// distributed coordinator (src/dist/) implements it by shipping the
/// frontier skeleton to worker processes and merging their histogram
/// bundles back in rank order. Either way, RunPass must leave `work` in
/// the byte-identical state a serial single-process scan would produce.
class PassScanner {
 public:
  virtual ~PassScanner() = default;

  /// Called once, after the driver has built grids and class counts but
  /// before the first pass.
  virtual void Prepare(const PassScanContext& ctx) { (void)ctx; }

  /// Runs one full pass, filling `work`'s bundles, pending buffers and
  /// collect lists.
  virtual void RunPass(FrontierQueues& work, PassObservation* po) = 0;
};

/// node id -> work-list slot maps for one pass (-1: not in that list).
struct SlotMaps {
  std::vector<int> fresh;
  std::vector<int> pending;
  std::vector<int> collect;
};

/// Builds the slot maps for a pass over a tree with `num_nodes` nodes.
SlotMaps BuildSlotMaps(int num_nodes, const FrontierQueues& work);

/// Records batched per fresh sink before an attribute-major kernel
/// flush: large enough to amortize the per-batch label/X-row gathers,
/// small enough that batch rid lists stay cache-resident.
constexpr size_t kScanBatchRecords = 512;

template <class Store>
class ScanPass : public PassScanner {
 public:
  /// All references are borrowed and must outlive the pass. `tree` is
  /// read-only during Run (records descend through splits resolved since
  /// the last scan); `nid` is the per-record frontier-node assignment
  /// and is advanced in place. `codes` (nullable) is the build's
  /// bin-code cache: when present and enabled, fresh bundles accumulate
  /// through the attribute-major batch kernels and pending routing reads
  /// cached interval indices — byte-identical counts, fraction of the
  /// work. `scan_shards` caps the shard count (0 = auto: pool
  /// parallelism, additionally capped at the hardware thread count, so a
  /// pool oversubscribed on a small machine does not pay mirror-clone
  /// and merge overhead for shards that cannot run concurrently anyway).
  ScanPass(Store& store, BlockSource& source,
           const std::vector<IntervalGrid>& grids, const DecisionTree& tree,
           std::vector<NodeId>& nid, ThreadPool* pool, ScanTracker* tracker,
           const BinCodeCache* codes = nullptr, int scan_shards = 0)
      : store_(store),
        source_(source),
        schema_(store.schema()),
        grids_(grids),
        tree_(tree),
        nid_(nid),
        pool_(pool),
        tracker_(tracker),
        codes_(codes != nullptr && codes->enabled() ? codes : nullptr),
        scan_shards_(scan_shards) {}

  void RunPass(FrontierQueues& work, PassObservation* po) override {
    Run(work, po);
  }

  /// Runs one full pass, filling `work`'s bundles, pending buffers and
  /// collect lists. On return the accumulated state is byte-for-byte
  /// what a serial single-block scan would have produced, for any thread
  /// count and block size, with or without the bin-code cache. Fills
  /// `po`'s kernel/cache counters when non-null. Throws on a mid-pass
  /// source failure.
  void Run(FrontierQueues& work, PassObservation* po = nullptr) {
    const int64_t n = source_.num_records();
    tracker_->ChargeScan(n, schema_);
    tracker_->ChargeWrite(n * static_cast<int64_t>(sizeof(NodeId)));

    const int num_nodes = tree_.num_nodes();
    const SlotMaps slots = BuildSlotMaps(num_nodes, work);

    {
      int64_t mem = GridsMemoryBytes(grids_) +
                    n * static_cast<int64_t>(sizeof(NodeId)) +
                    source_.resident_bytes();
      // The code cache is resident for the whole build (it is the point:
      // 1-2 bytes/value kept hot across passes), so it is part of every
      // pass's high-water mark.
      if (codes_ != nullptr) mem += codes_->MemoryBytes();
      for (const FreshWork& w : work.fresh) mem += w.bundle.MemoryBytes();
      for (const PendingWork& w : work.pending) {
        mem += w.pending->MemoryBytes();
      }
      tracker_->NotePeakMemory(mem);
    }

    // The scan routes each record through the (read-only) tree and
    // accumulates it into exactly one sink. Shard 0 scans directly into
    // the master work lists; every other shard gets a private empty
    // mirror of each sink, scans its own contiguous record range, and is
    // merged back in shard order below. Integer count merges are exact
    // and buffer/rid concatenation in shard order reproduces the serial
    // ascending-record order, so the post-merge state — and therefore
    // the tree — is bit-identical for any shard count.
    std::vector<HistBundle*> fresh_sink(work.fresh.size());
    for (size_t i = 0; i < work.fresh.size(); ++i) {
      fresh_sink[i] = &work.fresh[i].bundle;
    }
    std::vector<Pending*> pending_sink(work.pending.size());
    for (size_t i = 0; i < work.pending.size(); ++i) {
      pending_sink[i] = work.pending[i].pending.get();
    }
    std::vector<std::vector<RecordId>*> collect_sink(work.collect.size());
    for (size_t i = 0; i < work.collect.size(); ++i) {
      collect_sink[i] = &work.collect[i].rids;
    }

    // Shard mirrors persist across every block of the pass and are
    // merged once at its end. The block-major accumulation order is
    // harmless: count merges are commutative integer adds, pending
    // buffers are (value, rid)-sorted before use, and collect rid
    // lists are re-sorted ascending below — so the merged state, and
    // therefore the tree, cannot depend on the block size or the
    // thread count.
    int shard_limit = scan_shards_ > 0 ? scan_shards_ : pool_->parallelism();
    if (scan_shards_ <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) shard_limit = std::min(shard_limit, static_cast<int>(hw));
    }
    const int num_shards = static_cast<int>(
        std::min<int64_t>(std::max(shard_limit, 1), n));
    struct ScanShard {
      std::vector<HistBundle> fresh;
      std::vector<std::unique_ptr<Pending>> pending;
      std::vector<std::vector<RecordId>> collect;
      std::vector<RecordId> retain;
    };
    std::vector<ScanShard> shards(num_shards > 1 ? num_shards - 1 : 0);
    if (!shards.empty()) {
      // The clones read only shape fields the scan never mutates, so
      // per-shard mirror construction fans out.
      const int nc = schema_.num_classes();
      pool_->ParallelFor(
          static_cast<int64_t>(shards.size()), 1,
          [&](int64_t lo, int64_t hi) {
            for (int64_t s = lo; s < hi; ++s) {
              ScanShard& sh = shards[s];
              sh.fresh.reserve(work.fresh.size());
              for (size_t i = 0; i < work.fresh.size(); ++i) {
                sh.fresh.push_back(work.fresh[i].bundle.CloneEmptyShape());
              }
              sh.pending.reserve(work.pending.size());
              for (size_t i = 0; i < work.pending.size(); ++i) {
                sh.pending.push_back(
                    ClonePendingEmpty(*work.pending[i].pending, nc));
              }
              sh.collect.resize(work.collect.size());
            }
          });
    }
    // Per-shard batch state for the attribute-major kernels; persists
    // across blocks (the batches hold global record ids and flush
    // against the code cache, not the resident block, so a batch may
    // straddle a block boundary).
    std::vector<BatchScratch> batches;
    if (codes_ != nullptr) {
      batches.resize(num_shards);
      for (BatchScratch& b : batches) b.rids.resize(work.fresh.size());
    }
    std::vector<RecordId> master_retain;
    std::vector<RecordId>* const master_retain_ptr =
        Store::kStreaming ? &master_retain : nullptr;

    source_.Reset();
    BlockView view;
    int64_t scanned = 0;
    while (source_.NextBlock(&view)) {
      store_.SetBlock(view);
      const int64_t bn = view.count;
      const int shards_here =
          static_cast<int>(std::min<int64_t>(num_shards, bn));
      if (shards_here <= 1) {
        ScanRange(view.begin, view.begin + bn, num_nodes, slots, fresh_sink,
                  pending_sink, collect_sink, master_retain_ptr,
                  codes_ != nullptr ? &batches[0] : nullptr);
      } else {
        const int64_t chunk = (bn + shards_here - 1) / shards_here;
        pool_->ParallelFor(shards_here, 1, [&](int64_t lo, int64_t hi) {
          for (int64_t s = lo; s < hi; ++s) {
            const int64_t begin = view.begin + s * chunk;
            const int64_t end =
                std::min<int64_t>(view.begin + bn, begin + chunk);
            if (s == 0) {
              ScanRange(begin, end, num_nodes, slots, fresh_sink,
                        pending_sink, collect_sink, master_retain_ptr,
                        codes_ != nullptr ? &batches[0] : nullptr);
              continue;
            }
            ScanShard& sh = shards[s - 1];
            std::vector<HistBundle*> fsink(work.fresh.size());
            for (size_t i = 0; i < work.fresh.size(); ++i) {
              fsink[i] = &sh.fresh[i];
            }
            std::vector<Pending*> psink(work.pending.size());
            for (size_t i = 0; i < work.pending.size(); ++i) {
              psink[i] = sh.pending[i].get();
            }
            std::vector<std::vector<RecordId>*> csink(work.collect.size());
            for (size_t i = 0; i < work.collect.size(); ++i) {
              csink[i] = &sh.collect[i];
            }
            ScanRange(begin, end, num_nodes, slots, fsink, psink, csink,
                      Store::kStreaming ? &sh.retain : nullptr,
                      codes_ != nullptr ? &batches[s] : nullptr);
          }
        });
      }
      scanned += bn;
      if constexpr (Store::kStreaming) {
        // Absorb the records that must outlive this block (pending
        // buffers, collect lists — both re-read at resolve time) into
        // the stash while the block's columns are still resident.
        store_.Stash(master_retain);
        master_retain.clear();
        for (ScanShard& sh : shards) {
          store_.Stash(sh.retain);
          sh.retain.clear();
        }
      }
    }
    store_.ClearBlock();
    if (source_.failed() || scanned != n) {
      throw std::runtime_error("cmp: table scan failed mid-pass");
    }

    // Flush the partial batches left at pass end into their shard's own
    // sinks (kernels add against the code cache, so no block needs to be
    // resident). Order relative to the earlier flushes is immaterial:
    // everything is commutative integer adds.
    if (codes_ != nullptr) {
      for (int s = 0; s < num_shards; ++s) {
        BatchScratch& b = batches[s];
        for (size_t i = 0; i < work.fresh.size(); ++i) {
          if (b.rids[i].empty()) continue;
          HistBundle* sink = s == 0 ? fresh_sink[i] : &shards[s - 1].fresh[i];
          FlushBatch(&b, static_cast<int>(i), sink);
        }
      }
    }

    // A slot's merge touches only that slot's master and mirrors, so the
    // merge fans out over fresh + pending slots; within a slot the shards
    // still merge in shard order.
    if (!shards.empty()) {
      const size_t num_fresh = work.fresh.size();
      pool_->ParallelFor(
          static_cast<int64_t>(num_fresh + work.pending.size()), 1,
          [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              for (const ScanShard& sh : shards) {
                if (static_cast<size_t>(i) < num_fresh) {
                  work.fresh[i].bundle.MergeSameShape(sh.fresh[i]);
                } else {
                  MergePendingInto(work.pending[i - num_fresh].pending.get(),
                                   *sh.pending[i - num_fresh]);
                }
              }
            }
          });
    }
    for (const ScanShard& sh : shards) {
      for (size_t i = 0; i < work.collect.size(); ++i) {
        work.collect[i].rids.insert(work.collect[i].rids.end(),
                                    sh.collect[i].begin(),
                                    sh.collect[i].end());
      }
    }

    if (po != nullptr) {
      if (codes_ != nullptr) {
        po->code_cache_bytes = codes_->MemoryBytes();
        for (const BatchScratch& b : batches) {
          po->kernel_seconds += b.kernel_seconds;
        }
      }
    }
    // Restore the ascending record order a serial scan would have
    // produced (identity for the single-block in-memory path; required
    // after block-major accumulation so exact finishing sees records
    // in global order).
    for (CollectWork& w : work.collect) {
      std::sort(w.rids.begin(), w.rids.end());
    }

    // Buffered records count toward peak memory (they hold whole
    // records in a disk implementation). The streamed build really does
    // hold them: its stash is the disk implementation's side buffer.
    {
      int64_t buffered = 0;
      for (const PendingWork& w : work.pending) {
        buffered += static_cast<int64_t>(w.pending->buffer.size());
      }
      tracker_->NotePeakMemory(buffered * schema_.RecordBytes());
      if constexpr (Store::kStreaming) {
        tracker_->NotePeakMemory(store_.stash_bytes());
      }
    }
  }

 private:
  /// Per-shard state of the attribute-major kernel path: one pending
  /// record-id batch per fresh sink, the kernels' gather scratch, and
  /// the shard's accumulated kernel wall time.
  struct BatchScratch {
    std::vector<std::vector<RecordId>> rids;  // indexed by fresh slot
    KernelScratch kernel;
    double kernel_seconds = 0.0;
  };

  void FlushBatch(BatchScratch* b, int fs, HistBundle* sink) {
    std::vector<RecordId>& rids = b->rids[fs];
    Timer timer;
    sink->AccumulateBatch(*codes_, rids.data(), rids.size(), &b->kernel);
    b->kernel_seconds += timer.Seconds();
    rids.clear();
  }

  /// Runs the routing loop for records [begin, end) (which must lie
  /// inside the resident block) against the given per-slot scan sinks
  /// (the master work lists, or one shard's private mirrors during a
  /// parallel scan). When `retain` is non-null, every record that must
  /// stay readable after the block is evicted — buffered into a pending
  /// buffer or collected for exact finishing — is appended to it.
  /// `batch` (non-null iff the code cache is active) is this shard's
  /// kernel batch state: fresh-sink records are batched there and
  /// flushed attribute-major instead of being added record-major.
  void ScanRange(int64_t begin, int64_t end, int num_nodes,
                 const SlotMaps& slots, std::vector<HistBundle*>& fresh_sink,
                 std::vector<Pending*>& pending_sink,
                 std::vector<std::vector<RecordId>*>& collect_sink,
                 std::vector<RecordId>* retain, BatchScratch* batch) {
    for (RecordId r = static_cast<RecordId>(begin); r < end; ++r) {
      NodeId id = nid_[r];
      // Descend through every split resolved since the last scan.
      while (true) {
        const TreeNode& node = tree_.node(id);
        if (node.is_leaf || node.left == kInvalidNode) break;
        id = node.split.RoutesLeft(store_, r) ? node.left : node.right;
      }
      nid_[r] = id;
      if (id < num_nodes) {
        const int fs = slots.fresh[id];
        if (fs >= 0) {
          if (batch != nullptr) {
            std::vector<RecordId>& rids = batch->rids[fs];
            rids.push_back(r);
            if (rids.size() >= kScanBatchRecords) {
              FlushBatch(batch, fs, fresh_sink[fs]);
            }
          } else {
            fresh_sink[fs]->Add(store_, grids_, r);
          }
          continue;
        }
        const int ps = slots.pending[id];
        if (ps >= 0) {
          if (RoutePending(pending_sink[ps], store_, grids_, codes_, r) &&
              retain != nullptr) {
            retain->push_back(r);
          }
          continue;
        }
        const int cs = slots.collect[id];
        if (cs >= 0) {
          collect_sink[cs]->push_back(r);
          if (retain != nullptr) retain->push_back(r);
        }
      }
    }
  }

  Store& store_;
  BlockSource& source_;
  const Schema& schema_;
  const std::vector<IntervalGrid>& grids_;
  const DecisionTree& tree_;
  std::vector<NodeId>& nid_;
  ThreadPool* pool_;  // borrowed, never null
  ScanTracker* tracker_;
  const BinCodeCache* codes_;  // null when the cache is disabled
  int scan_shards_;
};

}  // namespace cmp

#endif  // CMP_CMP_SCAN_PASS_H_
