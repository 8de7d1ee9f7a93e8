#include "serve/batcher.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

namespace cmp {

namespace {
thread_local uint64_t batches_scored_here = 0;
}  // namespace

uint64_t MicroBatcher::BatchesScoredOnThisThread() {
  return batches_scored_here;
}

MicroBatcher::MicroBatcher(ThreadPool* pool, BatchPolicy policy,
                           ServeStats* stats)
    : pool_(pool),
      policy_(policy),
      stats_(stats),
      slots_(pool->parallelism()),
      inline_(pool->num_threads() == 0) {}

MicroBatcher::~MicroBatcher() { Stop(); }

std::future<RowReply> MicroBatcher::Submit(
    std::shared_ptr<const ServedModel> model, std::vector<double> numeric,
    std::vector<int32_t> categorical, bool want_probs) {
  std::vector<ScoreRow> rows;
  rows.push_back({std::move(model), std::move(numeric), std::move(categorical),
                  want_probs});
  return std::move(SubmitAll(std::move(rows)).front());
}

std::vector<std::future<RowReply>> MicroBatcher::SubmitAll(
    std::vector<ScoreRow> rows) {
  if (rows.empty()) return {};  // an inline caller would score others' rows
  // Everything a row needs is built before the lock: the critical
  // section only moves requests into the queue and claims slots.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> requests(rows.size());
  std::vector<std::future<RowReply>> futures;
  futures.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    requests[i].row = std::move(rows[i]);
    requests[i].enqueued = now;
    futures.push_back(requests[i].promise.get_future());
  }
  std::vector<std::vector<Request>> claimed;  // one batch per slot claimed
  uint64_t last = 0;                          // queue position of our last row
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rejected = stopping_;
    if (!rejected) {
      pending_.insert(pending_.end(),
                      std::make_move_iterator(requests.begin()),
                      std::make_move_iterator(requests.end()));
      queued_ += requests.size();
      last = queued_;
      while (!inline_ && in_flight_ < slots_ && !pending_.empty()) {
        claimed.push_back(TakeBatchLocked());
        ++in_flight_;
      }
    }
  }
  if (rejected) {
    for (Request& req : requests) {
      RowReply reply;
      reply.error = "server shutting down";
      req.promise.set_value(std::move(reply));
    }
  } else if (inline_) {
    ScoreUntilTaken(last);
  }
  for (std::vector<Request>& batch : claimed) Dispatch(std::move(batch));
  return futures;
}

std::vector<MicroBatcher::Request> MicroBatcher::TakeBatchLocked() {
  const size_t n = std::min(pending_.size(),
                            static_cast<size_t>(std::max(1, policy_.max_rows)));
  std::vector<Request> batch(std::make_move_iterator(pending_.begin()),
                             std::make_move_iterator(pending_.begin() + n));
  pending_.erase(pending_.begin(), pending_.begin() + n);
  taken_ += n;
  return batch;
}

void MicroBatcher::Dispatch(std::vector<Request> batch) {
  auto shared = std::make_shared<std::vector<Request>>(std::move(batch));
  pool_->Submit([this, shared] { RunSlot(std::move(*shared)); });
}

void MicroBatcher::RunSlot(std::vector<Request> batch) {
  RunBatch(&batch);
  batch.clear();  // drop model references outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) {
      // Notify under the lock: once Stop() sees the slot free it may
      // destroy the batcher, so nothing of `this` is touched after.
      --in_flight_;
      slot_freed_.notify_all();
      return;
    }
    // The slot stays claimed, but its next batch is a fresh pool task
    // rather than another turn of this one: a thread that picked this
    // task up while helping a ParallelFor returns to its own work after
    // one batch, not after the queue runs dry.
    batch = TakeBatchLocked();
  }
  Dispatch(std::move(batch));
}

void MicroBatcher::ScoreUntilTaken(uint64_t last) {
  std::unique_lock<std::mutex> lock(mu_);
  while (taken_ < last) {
    if (in_flight_ > 0) {
      slot_freed_.wait(lock);
      continue;
    }
    ++in_flight_;
    std::vector<Request> batch = TakeBatchLocked();
    lock.unlock();
    RunBatch(&batch);
    batch.clear();
    lock.lock();
    --in_flight_;
    slot_freed_.notify_all();
  }
}

void MicroBatcher::RunBatch(std::vector<Request>* batch) const {
  // Group row indices by model instance (pointer identity: two versions
  // of one name are distinct groups, which is exactly what a mid-queue
  // swap requires).
  std::map<const ServedModel*, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch->size(); ++i) {
    groups[(*batch)[i].row.model.get()].push_back(i);
  }

  for (auto& [model, rows] : groups) {
    const int32_t na = model->schema().num_attrs();
    const int32_t nc = model->num_classes();
    const int64_t n = static_cast<int64_t>(rows.size());
    // One row-major -> SoA transpose per flushed batch: the group's rows
    // are scattered attr-major into column buffers as they are gathered
    // from the requests, and the predictor descends the columns directly
    // (vector kernel tiers included) with no further copies.
    std::vector<double> numeric(static_cast<size_t>(n) * na);
    std::vector<int32_t> categorical;
    bool any_cat = false;
    for (int64_t r = 0; r < n && !any_cat; ++r) {
      any_cat = !(*batch)[rows[r]].row.categorical.empty();
    }
    if (any_cat) categorical.assign(static_cast<size_t>(n) * na, -1);
    for (int64_t r = 0; r < n; ++r) {
      const ScoreRow& row = (*batch)[rows[r]].row;
      for (int32_t a = 0; a < na; ++a) {
        numeric[static_cast<size_t>(a) * n + r] = row.numeric[a];
      }
      if (!row.categorical.empty()) {
        for (int32_t a = 0; a < na; ++a) {
          categorical[static_cast<size_t>(a) * n + r] = row.categorical[a];
        }
      }
    }
    std::vector<const double*> numeric_cols(na);
    std::vector<const int32_t*> cat_cols(any_cat ? na : 0);
    for (int32_t a = 0; a < na; ++a) {
      numeric_cols[a] = numeric.data() + static_cast<size_t>(a) * n;
      if (any_cat) cat_cols[a] = categorical.data() + static_cast<size_t>(a) * n;
    }
    const BatchResult result = model->PredictColumns(
        numeric_cols.data(), any_cat ? cat_cols.data() : nullptr, n);
    const auto done = std::chrono::steady_clock::now();
    // Account before fulfilling: a client that pipelines `stats` behind
    // its own reply must see counters that already include its rows.
    ++batches_scored_here;
    if (stats_ != nullptr) {
      stats_->AddRows(static_cast<uint64_t>(n));
      stats_->AddBatch();
    }
    for (int64_t r = 0; r < n; ++r) {
      Request& req = (*batch)[rows[r]];
      RowReply reply;
      reply.ok = true;
      reply.label = result.labels[r];
      reply.model_version = model->version();
      if (req.row.want_probs && !result.probs.empty()) {
        reply.probs.assign(result.probs.begin() + r * nc,
                           result.probs.begin() + (r + 1) * nc);
      }
      if (stats_ != nullptr) {
        stats_->request_latency().Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                done - req.enqueued)
                .count()));
      }
      req.promise.set_value(std::move(reply));
    }
  }
}

void MicroBatcher::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  // Queued rows belong to a busy slot (which hands the slot on while
  // any are left) or, on an inline pool, to submitters still scoring.
  slot_freed_.wait(lock,
                   [this] { return in_flight_ == 0 && pending_.empty(); });
}

}  // namespace cmp
