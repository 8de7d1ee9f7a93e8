#ifndef CMP_DIST_DIST_H_
#define CMP_DIST_DIST_H_

#include <cstdint>
#include <string>

#include "cmp/options.h"
#include "tree/builder.h"

namespace cmp {
namespace dist {

/// Multi-process histogram-merge training (cmptool train --workers K).
///
/// The coordinator forks K worker processes, each owning one contiguous
/// horizontal slice of the `.cmpt` table. Per pass, the coordinator
/// broadcasts the current tree and the frontier skeleton (io/wire.h
/// frames over a socketpair); every worker runs the ordinary sharded
/// ScanPass over its slice and ships back its local histogram bundles,
/// pending-buffer state, collect lists and record stash. The coordinator
/// merges the results in worker-rank order — the same contiguous
/// ascending-record decomposition the in-process sharded scan already
/// uses — and resolves splits exactly as a single-process build would. The resulting tree is byte-identical
/// to the single-process tree for every worker count, thread count and
/// block size.

struct DistOptions {
  /// Worker processes to fork. Slices are [k*n/K, (k+1)*n/K); empty
  /// slices (K > n) are legal and scan nothing.
  int num_workers = 2;
  /// Records per worker scan block. <= 0 streams each slice as ONE
  /// block (the in-memory working-set profile); a positive value bounds
  /// each worker's staging memory like `--stream --block B` does for a
  /// single-process build.
  int64_t block_records = 0;
  /// Threads per worker process (each worker owns a private pool,
  /// created after the fork).
  int num_threads = 1;
};

/// Trains a CMP-family tree over `table_path` with `dist.num_workers`
/// forked worker processes. Throws std::runtime_error when the table
/// cannot be read or a worker fails mid-build (the surviving workers
/// are killed and reaped before the throw propagates).
BuildResult DistTrain(const std::string& table_path,
                      const CmpOptions& options, const DistOptions& dist);

/// The worker protocol loop, run in the forked child over its inherited
/// socketpair end. Returns the process exit code (0 on orderly
/// shutdown). Exposed for tests; cmptool never calls it directly.
int RunWorker(int fd);

}  // namespace dist
}  // namespace cmp

#endif  // CMP_DIST_DIST_H_
