#ifndef CMP_SERVE_BATCHER_H_
#define CMP_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "serve/latency.h"
#include "serve/registry.h"

namespace cmp {

/// Outcome of one served row.
struct RowReply {
  bool ok = false;
  std::string error;           // set when !ok
  ClassId label = kInvalidClass;
  std::vector<float> probs;    // per-class, filled when requested
  uint64_t model_version = 0;  // version that actually scored the row
};

/// One row to score. `model` is non-null; `numeric` and `categorical`
/// are dense per-attribute slots sized model->schema().num_attrs()
/// (categorical may be empty for all-numeric schemas). `want_probs`
/// asks for the per-class vector in the reply.
struct ScoreRow {
  std::shared_ptr<const ServedModel> model;
  std::vector<double> numeric;
  std::vector<int32_t> categorical;
  bool want_probs = false;
};

/// How the batcher sizes its scoring batches.
struct BatchPolicy {
  /// Most rows one scoring batch takes.
  int max_rows = 256;
};

/// Coalesces submitted rows into scoring batches, work-conserving.
///
/// There are pool->parallelism() scoring slots (`pool` is non-null). A
/// submission that finds a slot free hands its rows to the pool at once
/// — a lone row never waits for company. Rows that arrive while every
/// slot is busy queue up, and the slot that finishes next takes them
/// itself, up to `policy.max_rows` per batch, as a fresh pool task, until
/// the queue is empty. So batches grow exactly when the scorer is the
/// bottleneck, and there is no timer and no flusher thread.
///
/// An inline pool (no workers) has one slot, held by whichever
/// submitting thread is scoring. A submitter scores batches from the
/// head of the queue while the slot is free and returns once its own
/// rows have been taken, so no caller scores rows queued after its own:
/// a request waits at most for the rows ahead of it, however steadily
/// other connections keep submitting.
///
/// A batch is grouped by model — one PredictColumns call per distinct
/// model instance — and each row's future is fulfilled with its
/// label/probs and the version that scored it; per-row queue+score
/// latency is recorded into `stats` at fulfillment time.
///
/// Because rows carry their own shared_ptr<const ServedModel>, a hot
/// swap mid-queue is torn-read-free by construction: rows submitted
/// before the swap score on the old version (kept alive by their
/// references), rows after it on the new one, and nothing in between.
class MicroBatcher {
 public:
  MicroBatcher(ThreadPool* pool, BatchPolicy policy, ServeStats* stats);
  ~MicroBatcher();

  /// Enqueues every row of one request under a single lock; the i-th
  /// future resolves once rows[i] has been scored. On an inline pool the
  /// call scores batches itself until its rows are taken.
  std::vector<std::future<RowReply>> SubmitAll(std::vector<ScoreRow> rows);

  /// SubmitAll of one row.
  std::future<RowReply> Submit(std::shared_ptr<const ServedModel> model,
                               std::vector<double> numeric,
                               std::vector<int32_t> categorical,
                               bool want_probs);

  /// Rejects new work, lets what is queued be scored, and returns once
  /// the queue is empty and no batch is in flight. Submissions after Stop()
  /// resolve immediately with an error reply. Idempotent; called by the
  /// destructor.
  void Stop();

  const BatchPolicy& policy() const { return policy_; }

  /// Batches (one per model group, as ServeStats counts them) that any
  /// MicroBatcher has scored on the calling thread. On an inline pool
  /// this tells a submitter's own scoring apart from other submitters'.
  static uint64_t BatchesScoredOnThisThread();

 private:
  struct Request {
    ScoreRow row;
    std::promise<RowReply> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Moves up to policy_.max_rows queued rows into a batch. Caller
  /// holds mu_.
  std::vector<Request> TakeBatchLocked();
  /// Hands `batch` to the pool as one task on a claimed slot.
  void Dispatch(std::vector<Request> batch);
  /// One turn of a scoring slot: runs `batch`, then dispatches the next
  /// queued batch on the same slot, or frees the slot if none is queued.
  void RunSlot(std::vector<Request> batch);
  /// Inline pool: scores batches from the head of the queue whenever the
  /// slot is free, until the queue position `last` has been taken.
  void ScoreUntilTaken(uint64_t last);
  /// Groups by model, scores, fulfills promises, records latency.
  void RunBatch(std::vector<Request>* batch) const;

  ThreadPool* pool_;
  const BatchPolicy policy_;
  ServeStats* stats_;
  const int slots_;
  const bool inline_;  // pool has no workers: submitters score

  std::mutex mu_;
  std::condition_variable slot_freed_;  // signaled when in_flight_ drops
  std::deque<Request> pending_;
  uint64_t queued_ = 0;  // rows ever queued; a row's queue position
  uint64_t taken_ = 0;   // rows ever taken from the queue into a batch
  int in_flight_ = 0;    // slots running a batch
  bool stopping_ = false;
};

}  // namespace cmp

#endif  // CMP_SERVE_BATCHER_H_
