#ifndef CMP_CMP_SPLIT_PLAN_H_
#define CMP_CMP_SPLIT_PLAN_H_

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "cmp/frontier.h"
#include "cmp/options.h"
#include "cmp/pairs.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "exact/exact.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/builder.h"

namespace cmp {

/// Split planning of the CMP build pipeline: scoring complete histogram
/// bundles, choosing split decisions (pending / exact / categorical /
/// linear), predicting children's X axes, and materializing decisions
/// into tree nodes and next-round frontier work. The SplitPlanner is
/// pure read-only analysis over histogram state; the SplitExecutor
/// applies its decisions to the tree, which is the only part that needs
/// the record store (buffer flushes re-read records, exact finishing
/// materializes partitions).

/// Per-attribute analysis outcome used for both split selection and
/// prediction.
struct BundleAnalysis {
  // Estimated (numeric) or exact (categorical) gini per attribute; the
  // paper selects the split attribute by this value.
  std::vector<double> attr_est;
  // Decision for the node.
  enum class Decision {
    kNone,            // no valid split: leaf
    kNumericPending,  // approximate split with alive intervals
    kNumericExact,    // boundary split, no interval can beat it
    kCategorical,
    kLinear,
  };
  Decision decision = Decision::kNone;
  AttrId attr = kInvalidAttr;
  // kNumericPending / kNumericExact.
  double fallback_threshold = 0.0;
  double fallback_gini = 1.0;
  std::vector<int> alive;                  // global interval indices
  std::vector<int64_t> exact_left_counts;  // kNumericExact / kCategorical
  // kCategorical.
  CategoricalSplit cat;
  // kLinear.
  Split linear_split;
};

/// How a child restricts the parent's records on the attribute that was
/// just split: a row range for numeric splits, a value mask for
/// categorical ones.
struct ChildRestriction {
  AttrId split_attr = kInvalidAttr;
  bool is_range = false;
  int lo = 0;  // global interval indices on split_attr
  int hi = 0;
  const std::vector<uint8_t>* mask = nullptr;
  uint8_t want = 1;
};

/// Read-only split analysis over the discretized grids. Everything here
/// is a pure function of histogram state (plus the build options), so
/// the frontier pre-analysis phase can call Analyze from worker threads.
class SplitPlanner {
 public:
  /// All references are borrowed and must outlive the planner; `pool`
  /// is never null (the build driver guarantees a pool).
  SplitPlanner(const Schema& schema, const CmpOptions& options,
               const VariantPolicy& policy,
               const std::vector<IntervalGrid>& grids,
               const std::vector<std::vector<char>>& interior,
               const std::vector<AttrId>& numeric_attrs, ThreadPool* pool)
      : schema_(schema),
        options_(options),
        policy_(policy),
        grids_(grids),
        interior_(interior),
        numeric_attrs_(numeric_attrs),
        pool_(pool) {}

  const Schema& schema() const { return schema_; }
  const std::vector<IntervalGrid>& grids() const { return grids_; }

  /// Whether this build accumulates bivariate matrices (policy says so
  /// AND at least one numeric attribute exists to serve as the X axis).
  bool bivariate() const {
    return policy_.use_matrices && !numeric_attrs_.empty();
  }

  /// Cut value of the global grid boundary with index `cut` on attribute
  /// `a` (cut i separates interval i from i+1).
  double CutValue(AttrId a, int cut) const { return grids_[a].UpperCut(cut); }

  /// Chooses the X-axis attribute for a fresh child bundle: the numeric
  /// attribute with the smallest estimated gini at the parent
  /// (predictSplit's fallback row for attributes not on the sub-matrix
  /// axes; see DESIGN.md for the simplification).
  AttrId PredictX(const BundleAnalysis& parent) const;

  /// The paper's predictSplit (Figure 7): exact ginis for the attributes
  /// on the sub-matrix axes (computed from the parent's matrices
  /// restricted to the child's rows), parent-level estimates for the
  /// rest; returns the argmin attribute, which becomes the child's X
  /// axis.
  AttrId PredictChildX(const HistBundle& parent,
                       const std::vector<double>& parent_est,
                       const ChildRestriction& r) const;

  /// Scores one attribute histogram the way Analyze does (boundary
  /// minimum clamped by interior-splittable interval estimates). `offs`
  /// maps local histogram rows to global grid intervals.
  double AttrEstFromHist(AttrId a, const Histogram1D& hist, int offs) const;

  HistBundle MakeFreshBundle(AttrId x_attr, int x_lo, int x_hi) const;

  /// Analyzes a node's complete histogram bundle and picks a split
  /// decision. `totals` are the node's per-class counts.
  BundleAnalysis Analyze(const HistBundle& bundle,
                         const std::vector<int64_t>& totals) const;

  /// Builds the Pending structure for a node whose decision is
  /// kNumericPending.
  std::unique_ptr<Pending> MakePending(const HistBundle& bundle,
                                       const BundleAnalysis& analysis,
                                       int depth) const;

  /// Plans one derived segment of a CMP-B double split.
  void PlanSegment(Segment* seg, int depth) const;

 private:
  const Schema& schema_;
  const CmpOptions& options_;
  VariantPolicy policy_;
  const std::vector<IntervalGrid>& grids_;
  const std::vector<std::vector<char>>& interior_;
  const std::vector<AttrId>& numeric_attrs_;
  ThreadPool* pool_;
};

/// Applies split decisions to the tree: grows analyzed nodes, resolves
/// pending splits against their sorted buffers, and finishes collected
/// in-memory partitions with the exact builder. Emits next-round work
/// into `next`. Templated over the record store because buffer flushes
/// and exact finishing re-read records; all store access is const.
template <class Store>
class SplitExecutor {
 public:
  /// `codes` (nullable) is the build's bin-code cache; buffer flushes
  /// read cached interval indices through it when present.
  SplitExecutor(const SplitPlanner& planner, const Store& store,
                const CmpOptions& options, BuildResult* result,
                ScanTracker* tracker, ThreadPool* pool, FrontierQueues* next,
                const BinCodeCache* codes = nullptr)
      : planner_(planner),
        store_(store),
        options_(options),
        result_(result),
        tracker_(tracker),
        pool_(pool),
        next_(next),
        codes_(codes != nullptr && codes->enabled() ? codes : nullptr) {}

  /// Root-level pairwise linear relations from the all-pairs extension
  /// (may stay empty; see CmpOptions::all_pairs_root).
  void set_root_relations(const std::vector<PairRelation>* relations) {
    root_relations_ = relations;
  }

  /// Whether GrowNode would reach Analyze for a node with these totals
  /// (mirrors its early-out chain); used to skip useless pre-analyses.
  bool WouldAnalyze(NodeId id, const std::vector<int64_t>& totals) const {
    const Schema& schema = planner_.schema();
    const int64_t n = CountSum(totals);
    const int depth = result_->tree.node(id).depth;
    if (n == 0 || IsPure(totals) || n < options_.base.min_split_records ||
        depth >= options_.base.max_depth ||
        (options_.base.prune &&
         ShouldPruneBeforeExpand(totals, schema.num_attrs()))) {
      return false;
    }
    return options_.base.in_memory_threshold <= 0 ||
           n > options_.base.in_memory_threshold;
  }

  /// Applies stop tests + Analyze to a real tree node whose bundle is
  /// complete, materializing children / pendings / collect work.
  /// `predicted` marks bundles whose X axis was chosen by predictSplit
  /// (fresh bundles); derived sub-matrix bundles inherit their X axis and
  /// do not count toward the prediction hit-rate. `pre` optionally hands
  /// in the node's analysis when it was computed ahead of time (frontier
  /// nodes of one level are analyzed in parallel before their serial,
  /// order-preserving application to the tree). The bundle is read, not
  /// consumed: the caller frees a whole frontier's bundles at once after
  /// the serial loop. Freeing each one here, between the children's
  /// allocations, made the single-threaded plan phase ~10% slower and
  /// noisier on a shared 4-vCPU host (DESIGN.md §4f).
  void GrowNode(NodeId id, HistBundle&& bundle, bool predicted = true,
                const BundleAnalysis* pre = nullptr) {
    const Schema& schema = planner_.schema();
    const std::vector<IntervalGrid>& grids = planner_.grids();
    const std::vector<int64_t> totals = bundle.ClassTotals();
    const int64_t n = CountSum(totals);
    // Correct the node's (possibly approximate) metadata with the exact
    // counts from its own histograms. An empty node (a linear split can
    // route everything one way) keeps its seeded counts so its leaf class
    // stays the parent's majority.
    if (n > 0) {
      TreeNode& node = result_->tree.mutable_node(id);
      node.class_counts = totals;
      node.leaf_class = Majority(totals);
    }
    const int depth = result_->tree.node(id).depth;

    if (n == 0 || IsPure(totals) || n < options_.base.min_split_records ||
        depth >= options_.base.max_depth ||
        (options_.base.prune &&
         ShouldPruneBeforeExpand(totals, schema.num_attrs()))) {
      MakeLeaf(id);
      return;
    }
    if (options_.base.in_memory_threshold > 0 &&
        n <= options_.base.in_memory_threshold) {
      next_->collect.push_back({id, {}});
      return;
    }

    // All-pairs extension: if the initial pass found a pairwise linear
    // relation at the root that the shared-X matrices cannot see, adopt it
    // when it beats the best univariate split by the usual margin.
    if (id == 0 && root_relations_ != nullptr && !root_relations_->empty()) {
      const BundleAnalysis probe =
          pre != nullptr ? *pre : planner_.Analyze(bundle, totals);
      double best_uni = std::numeric_limits<double>::infinity();
      for (double est : probe.attr_est) best_uni = std::min(best_uni, est);
      const PairRelation& rel = root_relations_->front();
      if (rel.gini < (1.0 - options_.linear_gain) * best_uni &&
          best_uni > options_.linear_skip_gini) {
        std::vector<int64_t> left_counts(schema.num_classes(), 0);
        std::vector<int64_t> right_counts(schema.num_classes(), 0);
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          left_counts[c] = totals[c] / 2;
          right_counts[c] = totals[c] - left_counts[c];
        }
        const NodeId left_id = AddChild(left_counts, depth + 1);
        const NodeId right_id = AddChild(right_counts, depth + 1);
        TreeNode& node = result_->tree.mutable_node(id);
        node.is_leaf = false;
        node.split = rel.split;
        node.left = left_id;
        node.right = right_id;
        const AttrId x = planner_.PredictX(probe);
        PushFreshPair(
            left_id, right_id,
            planner_.MakeFreshBundle(x, 0, grids[x].num_intervals()),
            planner_.MakeFreshBundle(x, 0, grids[x].num_intervals()));
        return;
      }
    }

    // A pre-computed analysis (parallel frontier phase) substitutes for
    // the inline call bit-for-bit: Analyze is a pure function of the
    // bundle and totals.
    BundleAnalysis local_an;
    if (pre == nullptr) local_an = planner_.Analyze(bundle, totals);
    const BundleAnalysis& an = pre != nullptr ? *pre : local_an;

    // Prediction bookkeeping: a fresh bivariate bundle's X axis was
    // chosen by predictSplit; a hit means the split landed on the X axis.
    if (predicted && bundle.bivariate() &&
        an.decision != BundleAnalysis::Decision::kNone) {
      result_->stats.predictions_total++;
      if (an.attr == bundle.x_attr()) result_->stats.predictions_correct++;
    }

    switch (an.decision) {
      case BundleAnalysis::Decision::kNone:
        MakeLeaf(id);
        return;

      case BundleAnalysis::Decision::kNumericPending: {
        if (id == 0) {
          result_->stats.root_alive_intervals =
              static_cast<int64_t>(an.alive.size());
        }
        auto pending = planner_.MakePending(bundle, an, depth);
        next_->pending.push_back({id, std::move(pending)});
        return;
      }

      case BundleAnalysis::Decision::kNumericExact: {
        if (an.fallback_gini >= Gini(totals) - 1e-12) {
          MakeLeaf(id);
          return;
        }
        std::vector<int64_t> right_counts(schema.num_classes());
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          right_counts[c] = totals[c] - an.exact_left_counts[c];
        }
        if (CountSum(an.exact_left_counts) == 0 ||
            CountSum(right_counts) == 0) {
          MakeLeaf(id);
          return;
        }
        const NodeId left_id = AddChild(an.exact_left_counts, depth + 1);
        const NodeId right_id = AddChild(right_counts, depth + 1);
        TreeNode& node = result_->tree.mutable_node(id);
        node.is_leaf = false;
        node.split = Split::Numeric(an.attr, an.fallback_threshold);
        node.left = left_id;
        node.right = right_id;

        if (bundle.bivariate() && an.attr == bundle.x_attr()) {
          // Exact boundary split on the X axis: the children's matrices
          // are sub-matrices — grow them immediately, no scan needed.
          const int cut = grids[an.attr].IntervalOf(an.fallback_threshold);
          HistBundle left_b = bundle.DeriveXRange(bundle.x_lo(), cut + 1,
                                                  bundle.x_lo(), cut + 1);
          HistBundle right_b = bundle.DeriveXRange(cut + 1, bundle.x_hi(),
                                                   cut + 1, bundle.x_hi());
          GrowNode(left_id, std::move(left_b), /*predicted=*/false);
          GrowNode(right_id, std::move(right_b), /*predicted=*/false);
        } else if (planner_.bivariate()) {
          // Exact split on a Y attribute: children need a scan; predict
          // each child's X axis from the restricted (X, attr) matrix.
          const int cut = grids[an.attr].IntervalOf(an.fallback_threshold);
          ChildRestriction left_r{an.attr, true, 0, cut + 1, nullptr, 1};
          ChildRestriction right_r{an.attr, true, cut + 1,
                                   grids[an.attr].num_intervals(), nullptr,
                                   1};
          const AttrId lx = planner_.PredictChildX(bundle, an.attr_est,
                                                   left_r);
          const AttrId rx = planner_.PredictChildX(bundle, an.attr_est,
                                                   right_r);
          PushFreshPair(
              left_id, right_id,
              planner_.MakeFreshBundle(lx, 0, grids[lx].num_intervals()),
              planner_.MakeFreshBundle(rx, 0, grids[rx].num_intervals()));
        } else {
          PushFreshPair(left_id, right_id,
                        HistBundle::MakeUnivariate(schema, grids),
                        HistBundle::MakeUnivariate(schema, grids));
        }
        return;
      }

      case BundleAnalysis::Decision::kCategorical:
      case BundleAnalysis::Decision::kLinear: {
        Split split;
        std::vector<int64_t> left_counts;
        if (an.decision == BundleAnalysis::Decision::kCategorical) {
          split = Split::Categorical(an.attr, an.cat.left_subset);
          left_counts = an.exact_left_counts;
        } else {
          split = an.linear_split;
          // Linear child counts are not derivable from the matrix alone
          // (cells crossed by the line split both ways); seed with a
          // half/half guess, corrected when the children's bundles are
          // analyzed after the next scan.
          left_counts.assign(schema.num_classes(), 0);
          for (ClassId c = 0; c < schema.num_classes(); ++c) {
            left_counts[c] = totals[c] / 2;
          }
        }
        std::vector<int64_t> right_counts(schema.num_classes());
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          right_counts[c] = totals[c] - left_counts[c];
        }
        if (an.decision == BundleAnalysis::Decision::kCategorical &&
            (CountSum(left_counts) == 0 || CountSum(right_counts) == 0)) {
          MakeLeaf(id);
          return;
        }
        const NodeId left_id = AddChild(left_counts, depth + 1);
        const NodeId right_id = AddChild(right_counts, depth + 1);
        TreeNode& node = result_->tree.mutable_node(id);
        node.is_leaf = false;
        node.split = split;
        node.left = left_id;
        node.right = right_id;
        if (planner_.bivariate()) {
          AttrId lx;
          AttrId rx;
          if (an.decision == BundleAnalysis::Decision::kCategorical) {
            ChildRestriction left_r{an.attr, false, 0, 0,
                                    &node.split.left_subset, 1};
            ChildRestriction right_r{an.attr, false, 0, 0,
                                     &node.split.left_subset, 0};
            lx = planner_.PredictChildX(bundle, an.attr_est, left_r);
            rx = planner_.PredictChildX(bundle, an.attr_est, right_r);
          } else {
            // Linear splits cut the matrix diagonally; no restricted
            // marginal exists, so fall back to parent-level estimates.
            lx = rx = planner_.PredictX(an);
          }
          PushFreshPair(
              left_id, right_id,
              planner_.MakeFreshBundle(lx, 0, grids[lx].num_intervals()),
              planner_.MakeFreshBundle(rx, 0, grids[rx].num_intervals()));
        } else {
          PushFreshPair(left_id, right_id,
                        HistBundle::MakeUnivariate(schema, grids),
                        HistBundle::MakeUnivariate(schema, grids));
        }
        return;
      }
    }
  }

  /// Works out the exact split of a pending whose node holds `totals`
  /// (per-class counts) from its buffer: sorts it, walks the candidate
  /// cuts, merges the segments into the two sides and flushes the buffer
  /// into them; then prepares any nested pending on either side with
  /// that side's counts. Reads the record store, writes only `p` and
  /// the pendings nested in it, so the build's top-level pendings
  /// prepare in parallel. ResolvePending applies the result.
  void PrepareResolve(Pending* p, const std::vector<int64_t>& totals) const {
    const Schema& schema = planner_.schema();
    const std::vector<IntervalGrid>& grids = planner_.grids();
    const int nc = schema.num_classes();
    const int64_t n = CountSum(totals);
    const int num_alive = static_cast<int>(p->alive.size());
    Resolution& res = p->resolution;
    res.buffered = static_cast<int64_t>(p->buffer.size());
    SortBuffer(&p->buffer);

    // Group buffered records by alive interval (sorted by value => groups
    // are contiguous and ascending).
    std::vector<std::pair<size_t, size_t>> groups(num_alive, {0, 0});
    {
      size_t pos = 0;
      for (int k = 0; k < num_alive; ++k) {
        const size_t begin = pos;
        while (pos < p->buffer.size() &&
               grids[p->attr].IntervalOf(p->buffer[pos].value) ==
                   p->alive[k]) {
          ++pos;
        }
        groups[k] = {begin, pos};
      }
    }

    // Walk: segment 0, alive 0, segment 1, alive 1, ..., last segment.
    // Candidates: every alive-interval edge cut and every distinct
    // buffered value.
    double best_gini = std::numeric_limits<double>::infinity();
    double best_threshold = 0.0;
    int best_s_left = -1;
    size_t best_buf_left = 0;  // buffered records (global index) on the left
    std::vector<int64_t> best_left_counts;

    std::vector<int64_t> below(nc, 0);
    auto candidate = [&](double threshold, int s_left, size_t buf_left) {
      int64_t left_n = 0;
      for (int64_t c : below) left_n += c;
      if (left_n <= 0 || left_n >= n) return;
      const double g = BoundaryGini(below, totals);
      if (g < best_gini) {
        best_gini = g;
        best_threshold = threshold;
        best_s_left = s_left;
        best_buf_left = buf_left;
        best_left_counts = below;
      }
    };

    for (int k = 0; k < num_alive; ++k) {
      for (ClassId c = 0; c < nc; ++c) below[c] += p->segments[k].counts[c];
      // Lower edge of alive interval k (cut index alive[k]-1).
      if (p->alive[k] >= 1) {
        candidate(planner_.CutValue(p->attr, p->alive[k] - 1), k + 1,
                  groups[k].first);
      }
      for (size_t i = groups[k].first; i < groups[k].second; ++i) {
        below[p->buffer[i].label]++;
        const bool last_of_value =
            i + 1 >= groups[k].second ||
            p->buffer[i + 1].value != p->buffer[i].value;
        if (last_of_value) {
          candidate(p->buffer[i].value, k + 1, i + 1);
        }
      }
      // Upper edge (cut index alive[k]); skip when it falls beyond the
      // grid (last interval has no upper cut).
      if (p->alive[k] <
          static_cast<int>(grids[p->attr].boundaries().size())) {
        candidate(planner_.CutValue(p->attr, p->alive[k]), k + 1,
                  groups[k].second);
      }
    }

    // Degenerate: every candidate puts all records on one side (e.g. the
    // node's records share a single value inside the alive interval).
    // The committed attribute cannot split this node; ResolvePending
    // collects its records next scan for the exact in-memory builder.
    res.splits = best_s_left >= 0;
    if (!res.splits) return;

    // ---- Merge segments into the two children and flush the buffer.
    res.threshold = best_threshold;
    res.left_counts = best_left_counts;
    res.right_counts.resize(nc);
    for (ClassId c = 0; c < nc; ++c) {
      res.right_counts[c] = totals[c] - best_left_counts[c];
    }

    auto merge_side = [&](int seg_begin, int seg_end) -> Segment {
      // Move the first segment out and merge the others into it.
      // Segments on one side share the bundle shape except for bivariate
      // X-range bundles, which only occur in the 1-alive derived case
      // where each side is exactly one segment (no merge needed).
      Segment merged = std::move(p->segments[seg_begin]);
      for (int k = seg_begin + 1; k < seg_end; ++k) {
        Segment& other = p->segments[k];
        for (ClassId c = 0; c < nc; ++c) merged.counts[c] += other.counts[c];
        // Only kGrow fresh full-shape bundles can need merging.
        assert(merged.plan == PlanKind::kGrow &&
               other.plan == PlanKind::kGrow);
        merged.bundle.MergeSameShape(other.bundle);
      }
      return merged;
    };

    res.left = merge_side(0, best_s_left);
    res.right = merge_side(best_s_left, num_alive + 1);

    for (size_t i = 0; i < p->buffer.size(); ++i) {
      FlushIntoSegment(i < best_buf_left ? &res.left : &res.right, store_,
                       grids, codes_, p->buffer[i].rid);
    }
    p->buffer.clear();

    if (res.left.plan == PlanKind::kPending) {
      PrepareResolve(res.left.sub.get(), res.left_counts);
    }
    if (res.right.plan == PlanKind::kPending) {
      PrepareResolve(res.right.sub.get(), res.right_counts);
    }
  }

  /// Applies a pending split of tree node `id` that PrepareResolve has
  /// worked out: creates the children (and grandchildren for nested
  /// pendings) and grows the frontier.
  void ResolvePending(NodeId id, Pending* p, int depth) {
    Resolution& res = p->resolution;
    // The sides' bundles are freed when this call returns, one pending
    // at a time, not with the whole work list.
    Segment left = std::move(res.left);
    Segment right = std::move(res.right);
    tracker_->ChargeBuffered(res.buffered);
    tracker_->ChargeSort(res.buffered);
    if (!res.splits) {
      next_->collect.push_back({id, {}});
      return;
    }
    const NodeId left_id = AddChild(res.left_counts, depth + 1);
    const NodeId right_id = AddChild(res.right_counts, depth + 1);
    TreeNode& parent = result_->tree.mutable_node(id);
    parent.is_leaf = false;
    parent.split = Split::Numeric(p->attr, res.threshold);
    parent.left = left_id;
    parent.right = right_id;

    // ---- Materialize each side.
    auto finish_side = [&](NodeId child_id, Segment& seg) {
      switch (seg.plan) {
        case PlanKind::kGrow:
          GrowNode(child_id, std::move(seg.bundle), seg.bundle_fresh);
          break;
        case PlanKind::kPending:
          ResolvePending(child_id, seg.sub.get(), depth + 1);
          break;
        case PlanKind::kExact: {
          const int64_t ln = CountSum(seg.exact_left_counts);
          const int64_t rn = CountSum(seg.exact_right_counts);
          if (ln == 0 || rn == 0) {
            // The planned split turned out degenerate on the real
            // records; fall back to growing whichever side has
            // everything.
            GrowNode(child_id, ln == 0 ? std::move(seg.exact_right)
                                       : std::move(seg.exact_left));
            break;
          }
          const NodeId gl = AddChild(seg.exact_left_counts, depth + 2);
          const NodeId gr = AddChild(seg.exact_right_counts, depth + 2);
          TreeNode& child = result_->tree.mutable_node(child_id);
          child.is_leaf = false;
          child.split = seg.exact_split;
          child.left = gl;
          child.right = gr;
          GrowNode(gl, std::move(seg.exact_left));
          GrowNode(gr, std::move(seg.exact_right));
          break;
        }
      }
    };
    finish_side(left_id, left);
    finish_side(right_id, right);
  }

  /// Finishes every collected partition in memory. With several
  /// independent partitions and a real pool, each subtree is built into a
  /// private detached tree (root node copied from the master tree) and
  /// grafted back in work-list order; Graft appends the subtree's nodes
  /// in their local id order, which is exactly the order the serial
  /// in-place build would have appended them, so node ids — and the
  /// serialized tree — match the serial build byte for byte.
  void FinishCollects(std::vector<CollectWork>& collect) {
    const Schema& schema = planner_.schema();
    if (pool_->parallelism() > 1 && collect.size() > 1) {
      struct CollectBuild {
        DecisionTree tree;
        BuildStats stats;
      };
      std::vector<CollectBuild> builds(collect.size());
      pool_->ParallelFor(collect.size(), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          CollectBuild& b = builds[i];
          b.tree = DecisionTree(schema);
          TreeNode root = result_->tree.node(collect[i].node);
          b.tree.AddNode(std::move(root));
          ScanTracker local(&b.stats);
          local.set_real_io(tracker_->real_io());
          FinishCollect(collect[i].rids, &b.tree, 0, &local);
        }
      });
      for (size_t i = 0; i < collect.size(); ++i) {
        tracker_->ChargeBuffered(static_cast<int64_t>(collect[i].rids.size()));
        result_->stats.Accumulate(builds[i].stats);
        result_->tree.Graft(collect[i].node, builds[i].tree);
      }
    } else {
      for (CollectWork& w : collect) {
        tracker_->ChargeBuffered(static_cast<int64_t>(w.rids.size()));
        FinishCollect(w.rids, &result_->tree, w.node, tracker_);
      }
    }
    collect.clear();
  }

 private:
  /// Pushes the two fresh children of a just-split node onto the next
  /// round's work list, left before right, so node-creation order — and
  /// the serialized tree — is the same on every run.
  void PushFreshPair(NodeId left_id, NodeId right_id, HistBundle&& left_b,
                     HistBundle&& right_b) {
    next_->fresh.push_back({left_id, std::move(left_b)});
    next_->fresh.push_back({right_id, std::move(right_b)});
  }

  NodeId AddChild(const std::vector<int64_t>& counts, int depth) {
    TreeNode child;
    child.depth = depth;
    child.class_counts = counts;
    child.leaf_class = Majority(counts);
    child.is_leaf = false;  // provisional; leaves are marked explicitly
    return result_->tree.AddNode(std::move(child));
  }

  void MakeLeaf(NodeId id) { result_->tree.MakeLeaf(id); }

  // Finishes one collect partition with the exact in-memory builder:
  // directly on the dataset when there is one, otherwise on a Dataset
  // materialized from the stash (rids ascending, so local record i is
  // global record rids[i] — BuildExactSubtree depends only on the
  // record sequence, so the subtree is identical either way).
  void FinishCollect(const std::vector<RecordId>& rids, DecisionTree* tree,
                     NodeId node, ScanTracker* tracker) {
    if constexpr (!Store::kStreaming) {
      BuildExactSubtree(*store_.dataset(), rids, options_.base, tree, node,
                        tracker, pool_);
    } else {
      // Streamed: the records live in the stash. Materialize them in
      // ascending rid order, so local record i is global record rids[i];
      // BuildExactSubtree depends only on attribute values and the
      // relative record order, both of which this preserves, so the
      // subtree matches the in-memory build's exactly.
      const Dataset local = store_.Materialize(rids);
      std::vector<RecordId> lrids(static_cast<size_t>(local.num_records()));
      std::iota(lrids.begin(), lrids.end(), 0);
      BuildExactSubtree(local, lrids, options_.base, tree, node, tracker,
                        pool_);
    }
  }

  const SplitPlanner& planner_;
  const Store& store_;
  const CmpOptions& options_;
  BuildResult* result_;
  ScanTracker* tracker_;
  ThreadPool* pool_;  // borrowed, never null
  FrontierQueues* next_;
  const BinCodeCache* codes_;  // null when the cache is disabled
  const std::vector<PairRelation>* root_relations_ = nullptr;
};

}  // namespace cmp

#endif  // CMP_CMP_SPLIT_PLAN_H_
