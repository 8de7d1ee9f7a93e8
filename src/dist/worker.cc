#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cmp/frontier.h"
#include "cmp/record_store.h"
#include "cmp/scan_pass.h"
#include "common/thread_pool.h"
#include "dist/dist.h"
#include "hist/bin_codes.h"
#include "io/block_source.h"
#include "io/scan.h"
#include "io/wire.h"
#include "tree/observer.h"
#include "tree/tree.h"

namespace cmp {
namespace dist {

namespace {

// Worker exit codes (the coordinator only distinguishes "clean" from
// "died": any abnormal exit surfaces as a closed socket and a training
// failure; the codes are for post-mortem `waitpid` inspection).
constexpr int kWorkerOk = 0;
constexpr int kWorkerProtocolError = 3;

// Test knob: CMP_DIST_TEST_DIE="rank:pass" makes that worker exit
// abruptly upon receiving that pass's kPassBegin, simulating a crash
// mid-pass. The fork inherits the coordinator's environment, so tests
// just set the variable before invoking training.
int DiePassForRank(int rank) {
  const char* spec = std::getenv("CMP_DIST_TEST_DIE");
  if (spec == nullptr) return -1;
  int die_rank = -1;
  int die_pass = -1;
  if (std::sscanf(spec, "%d:%d", &die_rank, &die_pass) != 2) return -1;
  return die_rank == rank ? die_pass : -1;
}

}  // namespace

int RunWorker(int fd) {
  using wire::MsgType;

  // ---- handshake: kHello carries everything the worker needs to stand
  // up its slice-local mirror of the build (rank, slice, scan options,
  // grids). The grids ride the same payload so the worker's bin-code
  // cache encodes against the coordinator's exact boundaries.
  MsgType type;
  std::string payload;
  std::string error;
  if (!wire::RecvFrame(fd, &type, &payload, &error) ||
      type != MsgType::kHello) {
    return kWorkerProtocolError;
  }
  wire::WireReader hello(payload);
  const int rank = static_cast<int>(hello.GetVar());
  std::string table_path;
  hello.GetString(&table_path);
  const int64_t slice_lo = static_cast<int64_t>(hello.GetVar());
  const int64_t slice_count = static_cast<int64_t>(hello.GetVar());
  int64_t block_records = hello.GetVarSigned();
  const int num_threads = static_cast<int>(hello.GetVar());
  const int scan_shards = static_cast<int>(hello.GetVar());
  const bool use_codes = hello.GetU8() != 0;
  const int intervals = static_cast<int>(hello.GetVar());
  if (!hello.ok()) return kWorkerProtocolError;

  auto nack = [&](const std::string& message) {
    wire::WireWriter w;
    w.PutU8(0);
    w.PutVar(0);
    w.PutString(message);
    wire::SendFrame(fd, MsgType::kHelloAck, w.buffer());
    return kWorkerProtocolError;
  };

  if (block_records <= 0) block_records = std::max<int64_t>(slice_count, 1);
  auto source = TableBlockSource::Open(table_path, block_records, slice_lo,
                                       slice_count);
  if (source == nullptr) {
    return nack("worker cannot open table slice of " + table_path);
  }
  const Schema& schema = source->schema();
  std::vector<IntervalGrid> grids;
  if (!wire::ReadGrids(&hello, schema, &grids) || !hello.AtEnd()) {
    return nack("malformed hello payload");
  }

  ThreadPool pool(num_threads);
  source->set_prefetch_pool(pool.num_threads() > 0 ? &pool : nullptr);
  StreamStore store(schema, slice_count);
  BuildStats local_stats;
  ScanTracker tracker(&local_stats);
  tracker.set_real_io(true);

  // The slice-local bin-code cache: encoded once from the broadcast
  // grids, read by every pass. AddCoded == Add cell for cell, so the
  // coordinator (which runs codeless) merges identical counts.
  BinCodeCache codes;
  if (use_codes) {
    codes = BinCodeCache(schema, slice_count, intervals);
    if (codes.enabled()) {
      std::vector<ClassId> labels;
      if (!source->ReadLabels(&labels)) return nack("cannot read labels");
      codes.SetLabels(std::move(labels));
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        if (schema.is_numeric(a)) {
          std::vector<double> column;
          if (!source->ReadNumericColumn(a, &column)) {
            return nack("cannot read numeric column");
          }
          codes.EncodeNumericColumn(a, grids[a], column);
        } else {
          std::vector<int32_t> column;
          if (!source->ReadCategoricalColumn(a, &column)) {
            return nack("cannot read categorical column");
          }
          codes.EncodeCategoricalColumn(a, column);
        }
      }
    }
  }

  {
    wire::WireWriter w;
    w.PutU8(1);
    w.PutVar(static_cast<uint64_t>(slice_count));
    w.PutString("");
    if (!wire::SendFrame(fd, MsgType::kHelloAck, w.buffer())) {
      return kWorkerProtocolError;
    }
  }

  // Every record of the slice starts at the root; nid advances pass by
  // pass exactly as the single-process scan's map does for these
  // records (the re-broadcast tree replays the same splits).
  std::vector<NodeId> nid(slice_count, 0);
  const int die_pass = DiePassForRank(rank);

  // ---- pass loop ----
  for (int pass = 0;; ++pass) {
    if (!wire::RecvFrame(fd, &type, &payload, &error)) {
      return kWorkerProtocolError;
    }
    if (type == MsgType::kShutdown) return kWorkerOk;
    if (type != MsgType::kPassBegin) return kWorkerProtocolError;
    if (pass == die_pass) ::_exit(1);  // crash simulation (tests only)

    // kPassBegin: the tree in routing form, then the frontier skeleton
    // — empty mirrors of every fresh bundle, pending split and collect
    // list, in the coordinator's work-list order.
    wire::WireReader r(payload);
    DecisionTree tree(schema);
    if (!wire::ReadTree(&r, &tree)) return kWorkerProtocolError;
    FrontierQueues work;
    const uint64_t num_fresh = r.GetVar();
    if (num_fresh > r.remaining()) return kWorkerProtocolError;
    for (uint64_t i = 0; r.ok() && i < num_fresh; ++i) {
      FreshWork fw;
      fw.node = static_cast<NodeId>(r.GetVar());
      if (!wire::ReadBundleShape(&r, schema, grids, &fw.bundle)) {
        return kWorkerProtocolError;
      }
      work.fresh.push_back(std::move(fw));
    }
    const uint64_t num_pending = r.GetVar();
    if (num_pending > r.remaining()) return kWorkerProtocolError;
    for (uint64_t i = 0; r.ok() && i < num_pending; ++i) {
      PendingWork pw;
      pw.node = static_cast<NodeId>(r.GetVar());
      if (!wire::ReadPendingSkeleton(&r, schema, grids, schema.num_classes(),
                                     &pw.pending)) {
        return kWorkerProtocolError;
      }
      work.pending.push_back(std::move(pw));
    }
    const uint64_t num_collect = r.GetVar();
    if (num_collect > r.remaining()) return kWorkerProtocolError;
    for (uint64_t i = 0; r.ok() && i < num_collect; ++i) {
      CollectWork cw;
      cw.node = static_cast<NodeId>(r.GetVar());
      work.collect.push_back(std::move(cw));
    }
    if (!r.AtEnd()) return kWorkerProtocolError;

    const int64_t bytes_before = source->bytes_read();
    PassObservation po;
    ScanPass<StreamStore> scan(store, *source, grids, tree, nid, &pool,
                               &tracker, use_codes ? &codes : nullptr,
                               scan_shards);
    try {
      scan.Run(work, &po);
    } catch (...) {
      return kWorkerProtocolError;
    }

    // kPassResult: per-worker stats, then the accumulated state in the
    // skeleton's order — histogram cells for every fresh bundle, pending buffers/counts, collect rid lists, and the
    // full rows of every stashed record (the coordinator's resolve phase
    // re-reads them). All rids are slice-local; the coordinator rebases
    // by slice_lo.
    wire::WireWriter w;
    w.PutF64(po.kernel_seconds);
    w.PutVar(static_cast<uint64_t>(po.code_cache_bytes));
    w.PutVar(static_cast<uint64_t>(source->bytes_read() - bytes_before));
    w.PutVar(work.fresh.size());
    for (const FreshWork& fw : work.fresh) {
      wire::WriteBundleCounts(&w, fw.bundle);
    }
    w.PutVar(work.pending.size());
    for (const PendingWork& pw : work.pending) {
      wire::WritePendingState(&w, *pw.pending);
    }
    w.PutVar(work.collect.size());
    for (const CollectWork& cw : work.collect) {
      w.PutVar(cw.rids.size());
      for (RecordId rid : cw.rids) w.PutVar(static_cast<uint64_t>(rid));
    }
    const std::vector<RecordId> stashed = store.StashedRids();
    w.PutVar(stashed.size());
    for (RecordId rid : stashed) {
      w.PutVar(static_cast<uint64_t>(rid));
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        if (schema.is_numeric(a)) {
          w.PutF64(store.numeric(a, rid));
        } else {
          w.PutVarSigned(store.categorical(a, rid));
        }
      }
      w.PutVar(static_cast<uint64_t>(store.label(rid)));
    }
    if (!wire::SendFrame(fd, MsgType::kPassResult, w.buffer())) {
      return kWorkerProtocolError;
    }
    store.ClearStash();
  }
}

}  // namespace dist
}  // namespace cmp
