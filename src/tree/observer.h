#ifndef CMP_TREE_OBSERVER_H_
#define CMP_TREE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace cmp {

/// One completed pass (scan round / tree level) of a scan-based tree
/// builder. CMP fills every field from its layered pipeline; the other
/// builders report the coarse subset that exists for them (pass index,
/// records, frontier size, tree size) and leave the rest at zero.
struct PassObservation {
  int pass = 0;  // 0-based pass index
  /// Wall seconds routing records + filling histograms this pass.
  double scan_seconds = 0.0;
  /// Wall seconds analyzing bundles, planning and resolving splits.
  double plan_seconds = 0.0;
  /// Wall seconds finishing in-memory partitions with the exact builder.
  double finish_seconds = 0.0;
  int64_t records_scanned = 0;
  /// Bytes read this pass (real I/O for streamed builds, disk-simulation
  /// charges otherwise).
  int64_t bytes_read = 0;
  /// Frontier composition at the start of the pass.
  int64_t frontier_fresh = 0;    // nodes awaiting their first histograms
  int64_t frontier_pending = 0;  // approximate splits awaiting resolution
  int64_t frontier_collect = 0;  // partitions being collected for exact finish
  /// Alive intervals across all pending splits (nested ones included).
  int64_t alive_intervals = 0;
  /// Records set aside in pending buffers during this pass.
  int64_t buffered_records = 0;
  /// Bytes of pending/buffer state (plus the streamed stash) after the
  /// scan — the build's frontier-memory high-water contribution.
  int64_t buffer_bytes = 0;
  /// Nodes in the tree after the pass was applied.
  int64_t tree_nodes = 0;
  /// Wall seconds spent inside the attribute-major histogram kernels
  /// this pass, summed across shards (a subset of scan_seconds; 0 when
  /// the bin-code cache is disabled).
  double kernel_seconds = 0.0;
  /// Resident bytes of the bin-code cache (0 when disabled).
  int64_t code_cache_bytes = 0;
  /// Always 0: sibling subtraction (deriving a child's bundle as parent
  /// minus its scanned sibling) was removed because it did not win a
  /// measurement. Kept so `--stats-json` keys and bench readers stay
  /// stable.
  int64_t sibling_subtractions = 0;
  /// Distributed training only (0 otherwise): worker processes that
  /// scanned this pass, protocol bytes exchanged with them (frames in
  /// both directions), and wall seconds the coordinator spent merging
  /// their results in rank order.
  int64_t workers = 0;
  int64_t wire_bytes = 0;
  double merge_seconds = 0.0;
  /// Streaming training only (0 otherwise): resident bytes of quantile
  /// sketch state across the frontier after this pass.
  int64_t sketch_bytes = 0;
  /// Refit only (0 otherwise): drifted leaves whose subtrees this pass
  /// started regrowing.
  int64_t refit_leaves_regrown = 0;
};

/// Training observability hook. Builders that support it (all library
/// builders; CMP with full per-phase detail) invoke the callbacks from
/// the build thread, in pass order. Implementations must not retain
/// references past the callback. See `cmptool train --stats-json` for
/// the ready-made JSON surface.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  /// Called once before the first pass. `builder` is the algorithm's
  /// display name, `records` the training-set size.
  virtual void OnBuildStart(const std::string& builder, int64_t records) {
    (void)builder;
    (void)records;
  }

  /// Called after each completed pass.
  virtual void OnPass(const PassObservation& pass) { (void)pass; }

  /// Called once after construction (post-pruning) with the final
  /// counters.
  virtual void OnBuildEnd(const BuildStats& stats) { (void)stats; }
};

/// Ready-made observer that records every pass and renders the whole
/// training run as JSON (used by `cmptool train --stats-json`).
class TrainStatsCollector : public TrainObserver {
 public:
  void OnBuildStart(const std::string& builder, int64_t records) override;
  void OnPass(const PassObservation& pass) override;
  void OnBuildEnd(const BuildStats& stats) override;

  const std::vector<PassObservation>& passes() const { return passes_; }
  const BuildStats& final_stats() const { return final_stats_; }
  /// Kernel ISA ("scalar" | "avx2") active when the observed
  /// build started, captured in OnBuildStart.
  const std::string& kernel_isa() const { return kernel_isa_; }

  /// The run as a JSON object: builder, record count, per-pass metrics
  /// and the final BuildStats counters.
  std::string ToJson() const;

 private:
  std::string builder_;
  std::string kernel_isa_;
  int64_t records_ = 0;
  std::vector<PassObservation> passes_;
  BuildStats final_stats_;
  bool finished_ = false;
};

}  // namespace cmp

#endif  // CMP_TREE_OBSERVER_H_
