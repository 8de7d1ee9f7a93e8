#ifndef CMP_CMP_FRONTIER_H_
#define CMP_CMP_FRONTIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cmp/bundle.h"
#include "hist/bin_codes.h"
#include "hist/quantiles.h"
#include "tree/split.h"

namespace cmp {

/// Frontier/pending lifecycle of the CMP build pipeline: the structures
/// a scan accumulates into (fresh histogram bundles, pending approximate
/// splits with their segments and buffers, collect lists) and the
/// operations that keep them consistent across sharded, blocked scans —
/// empty-mirror cloning, deterministic merging, record routing/flushing
/// and buffer sorting. Split *decisions* live one layer up in
/// split_plan.h; scan orchestration lives in scan_pass.h.

/// A record set aside because its split-attribute value falls in an alive
/// interval; the exact record is re-read from the (read-only) dataset at
/// flush time, so only the sort key and class are kept hot.
struct BufferedRecord {
  RecordId rid;
  double value;
  ClassId label;
};

constexpr int64_t kBufferedBytes = 20;  // rid + value + label on disk

struct Pending;

/// What a preliminary subnode (segment of a pending split) will become.
enum class PlanKind {
  /// Keep the (derived or fresh) bundle; analyze normally at resolution.
  kGrow,
  /// Nested pending split (CMP-B second-level split, Figure 8/10).
  kPending,
  /// Exact split decided from the derived sub-matrices; grandchild
  /// bundles fill during the scan.
  kExact,
};

/// One preliminary subnode of a pending split: the records strictly
/// between two alive intervals (or outside the outermost ones).
struct Segment {
  // Per-class counts of records routed here during the scan; for derived
  // bundles this equals the bundle totals once the buffer is flushed.
  std::vector<int64_t> counts;
  // Global X/interval range of the records this segment may receive
  // (including the partial alive columns filled by buffer flushes).
  int range_lo = 0;
  int range_hi = 0;

  PlanKind plan = PlanKind::kGrow;
  HistBundle bundle;             // kGrow
  bool bundle_fresh = true;      // fill during scan?
  std::unique_ptr<Pending> sub;  // kPending
  Split exact_split;             // kExact
  HistBundle exact_left;         // kExact: grandchild bundles
  HistBundle exact_right;
  std::vector<int64_t> exact_left_counts;  // kExact: routed counts
  std::vector<int64_t> exact_right_counts;
};

/// The exact split of a pending, worked out after its scan by
/// SplitExecutor::PrepareResolve (split_plan.h) and applied to the tree
/// by SplitExecutor::ResolvePending.
struct Resolution {
  // Records the buffer held when resolution began (sort/buffer charges).
  int64_t buffered = 0;
  // False when no candidate splits the node (every candidate puts all
  // records on one side); the node is then collected instead.
  bool splits = false;
  double threshold = 0.0;
  std::vector<int64_t> left_counts;
  std::vector<int64_t> right_counts;
  // The merged segments on each side, buffer flushed in; a nested
  // pending inside either is itself prepared.
  Segment left;
  Segment right;
};

/// A pending (approximate) numeric split awaiting exact resolution at
/// the next scan.
struct Pending {
  AttrId attr = kInvalidAttr;
  // Alive interval indices on `attr` (global grid indices), ascending,
  // between 1 and max_alive entries.
  std::vector<int> alive;
  std::vector<Segment> segments;  // alive.size() + 1
  std::vector<BufferedRecord> buffer;
  Resolution resolution;  // filled after the scan
  int64_t MemoryBytes() const;
};

// ---------------------------------------------------------------------
// Per-shard scan state. A parallel scan hands each shard a contiguous,
// ascending record range and a private empty mirror of every histogram
// the scan accumulates; the mirrors are merged back in a fixed order.
// All merged state is integer counts (commutative, exact) or buffers
// concatenated in ascending-shard = ascending-record order, so the
// merged result is byte-for-byte the serial scan's — the root of the
// bit-identical-for-any-thread-count contract.

/// Empty structural mirror of `p`: same plan tree, zeroed counts, empty
/// buffers; bundles that accumulate during a scan are cloned empty,
/// derived (pre-filled, bundle_fresh == false) bundles are left empty
/// because RoutePending never touches them. `nc` is the class count.
std::unique_ptr<Pending> ClonePendingEmpty(const Pending& p, int nc);

/// Merges a shard mirror back into the master pending.
void MergePendingInto(Pending* dst, const Pending& src);

/// Sorts a pending buffer by (value, rid). The record id tiebreak makes
/// the order a total one, so the sorted buffer does not depend on the
/// order shards appended records in; equal-valued records always route
/// to the same side of the resolved split.
void SortBuffer(std::vector<BufferedRecord>* buffer);

/// Alive intervals across `p` and its nested sub-pendings (observer
/// metric).
int64_t CountAliveIntervals(const Pending& p);

/// Buffered records across `p` and its nested sub-pendings (observer
/// metric).
int64_t CountBufferedRecords(const Pending& p);

// ---------------------------------------------------------------------
// The frontier work lists: what the next scan must accumulate for every
// active node of the tree's growth frontier.

/// A node awaiting its first complete histogram bundle.
struct FreshWork {
  NodeId node;
  HistBundle bundle;
};

/// A node whose approximate split resolves after the next scan.
struct PendingWork {
  NodeId node;
  std::unique_ptr<Pending> pending;
};

/// A node whose partition fits in memory: its record ids are collected
/// during the next scan and the subtree is finished exactly.
struct CollectWork {
  NodeId node;
  std::vector<RecordId> rids;
};

/// One scan round's work lists. The build loop scans against the current
/// queues while split resolution emits into the next round's.
struct FrontierQueues {
  std::vector<FreshWork> fresh;
  std::vector<PendingWork> pending;
  std::vector<CollectWork> collect;

  bool Empty() const {
    return fresh.empty() && pending.empty() && collect.empty();
  }
  void Clear() {
    fresh.clear();
    pending.clear();
    collect.clear();
  }
};

// ---------------------------------------------------------------------
// Record routing through a pending split. Templated over the record
// store (record_store.h) like the rest of the pipeline; all reads are
// const, so shards can route concurrently into private mirrors.

/// Routes record `r` through a pending split (at most one nested
/// level). Returns true if the record was set aside in a (possibly
/// nested) pending buffer — i.e. it will be re-read at resolve time.
/// `codes` (nullable) is the build's bin-code cache: when present, bundle
/// adds read the cached interval index instead of binary-searching the
/// grid — identical counts either way, since codes agree with IntervalOf
/// by construction.
template <class Store>
bool RoutePending(Pending* p, const Store& store,
                  const std::vector<IntervalGrid>& grids,
                  const BinCodeCache* codes, RecordId r) {
  const double v = store.numeric(p->attr, r);
  const int iv =
      codes != nullptr ? codes->code(p->attr, r) : grids[p->attr].IntervalOf(v);
  int k = 0;
  for (int a : p->alive) {
    if (iv == a) {
      p->buffer.push_back({r, v, store.label(r)});
      return true;
    }
    if (iv > a) ++k;
  }
  Segment& seg = p->segments[k];
  seg.counts[store.label(r)]++;
  switch (seg.plan) {
    case PlanKind::kGrow:
      if (seg.bundle_fresh) {
        if (codes != nullptr) {
          seg.bundle.AddCoded(*codes, r);
        } else {
          seg.bundle.Add(store, grids, r);
        }
      }
      break;
    case PlanKind::kPending:
      return RoutePending(seg.sub.get(), store, grids, codes, r);
    case PlanKind::kExact:
      if (seg.exact_split.RoutesLeft(store, r)) {
        seg.exact_left_counts[store.label(r)]++;
        if (codes != nullptr) {
          seg.exact_left.AddCoded(*codes, r);
        } else {
          seg.exact_left.Add(store, grids, r);
        }
      } else {
        seg.exact_right_counts[store.label(r)]++;
        if (codes != nullptr) {
          seg.exact_right.AddCoded(*codes, r);
        } else {
          seg.exact_right.Add(store, grids, r);
        }
      }
      break;
  }
  return false;
}

/// Adds a buffered record to whatever sits on one side of a resolved
/// split: a nested pending, an exact sub-split, or a plain bundle.
template <class Store>
void FlushIntoSegment(Segment* seg, const Store& store,
                      const std::vector<IntervalGrid>& grids,
                      const BinCodeCache* codes, RecordId r) {
  seg->counts[store.label(r)]++;
  switch (seg->plan) {
    case PlanKind::kGrow:
      if (codes != nullptr) {
        seg->bundle.AddCoded(*codes, r);
      } else {
        seg->bundle.Add(store, grids, r);
      }
      break;
    case PlanKind::kPending:
      // A flushed record can land in a nested pending's buffer; it was
      // already stashed when it was first buffered, so the nested
      // resolve (later this round) can still read it.
      RoutePending(seg->sub.get(), store, grids, codes, r);
      break;
    case PlanKind::kExact:
      if (seg->exact_split.RoutesLeft(store, r)) {
        seg->exact_left_counts[store.label(r)]++;
        if (codes != nullptr) {
          seg->exact_left.AddCoded(*codes, r);
        } else {
          seg->exact_left.Add(store, grids, r);
        }
      } else {
        seg->exact_right_counts[store.label(r)]++;
        if (codes != nullptr) {
          seg->exact_right.AddCoded(*codes, r);
        } else {
          seg->exact_right.Add(store, grids, r);
        }
      }
      break;
  }
}

}  // namespace cmp

#endif  // CMP_CMP_FRONTIER_H_
