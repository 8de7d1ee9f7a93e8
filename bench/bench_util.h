#ifndef CMP_BENCH_BENCH_UTIL_H_
#define CMP_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction harnesses.
//
// Every harness honors the environment variable CMP_BENCH_SCALE: a factor
// applied to the paper's record counts (default 0.1, so the default suite
// runs 20k-250k records instead of 200k-2.5M). Set CMP_BENCH_SCALE=1 to
// reproduce the paper's sizes exactly.
//
// Reported "time" columns: `sim(s)` converts each builder's disk/CPU
// counters into seconds under the DiskModel (the paper's testbed was
// disk-bound, so the figures' shapes live in this column); `wall(s)` is
// the measured in-memory construction time on this host.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.h"

namespace cmp::bench {

inline double Scale() {
  const char* env = std::getenv("CMP_BENCH_SCALE");
  if (env == nullptr) return 0.1;
  const double s = std::atof(env);
  return s > 0 ? s : 0.1;
}

/// The paper's Figure 14-17 x-axis: 200,000 .. 2,500,000 records.
inline std::vector<int64_t> RecordSeries() {
  const double s = Scale();
  std::vector<int64_t> series;
  for (const int64_t n : {200000ll, 700000ll, 1300000ll, 1900000ll,
                          2500000ll}) {
    series.push_back(static_cast<int64_t>(n * s));
  }
  return series;
}

inline DiskModel Disk() { return DiskModel{}; }

/// The checked-out commit, suffixed "-dirty" when the working tree has
/// uncommitted changes (`git describe --always --dirty` in the working
/// directory), or "unknown" outside a git checkout: part of the host
/// stamp a BENCH_*.json carries.
inline std::string GitCommit() {
  std::string commit;
  std::FILE* git = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (git != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), git) != nullptr) commit = buf;
    ::pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

}  // namespace cmp::bench

#endif  // CMP_BENCH_BENCH_UTIL_H_
