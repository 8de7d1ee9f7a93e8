// In-process tests of the serving subsystem: the lock-free latency
// histogram, ModelRegistry's RCU swap semantics (hammered from many
// threads — this is a TSan target), MicroBatcher's work-conserving
// batching and shutdown, and a real ServeDaemon on an ephemeral port
// driven through ServeClient, including a hot swap under concurrent
// traffic, pipelined requests, reply latency, and the per-client
// resource bounds (line length, connection threads).

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "common/schema.h"
#include "common/thread_pool.h"
#include "infer/model_io.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/latency.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tree/tree.h"

namespace cmp {
namespace {

Schema MakeSchema() {
  return Schema({{"x", AttrKind::kNumeric, 0}, {"y", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
}

// x <= threshold -> left leaf, else right. `flip` swaps the two leaf
// classes, giving a "new model version" whose predictions visibly
// differ from the old one on every row.
DecisionTree MakeTree(double threshold, bool flip) {
  DecisionTree tree(MakeSchema());
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, threshold);
  tree.AddNode(root);
  TreeNode left;
  left.is_leaf = true;
  left.leaf_class = flip ? 1 : 0;
  left.class_counts = {flip ? int64_t{1} : int64_t{9},
                       flip ? int64_t{9} : int64_t{1}};
  left.depth = 1;
  TreeNode right = left;
  right.leaf_class = flip ? 0 : 1;
  right.class_counts = {left.class_counts[1], left.class_counts[0]};
  tree.AddNode(left);
  tree.AddNode(right);
  tree.mutable_node(0).left = 1;
  tree.mutable_node(0).right = 2;
  return tree;
}

CompiledModel MakeModel(double threshold, bool flip) {
  const DecisionTree tree = MakeTree(threshold, flip);
  std::string error;
  CompiledModel model = CompileModel({&tree}, &error);
  EXPECT_FALSE(model.empty()) << error;
  return model;
}

TEST(ServeLatency, BucketMappingIsMonotone) {
  int prev = -1;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 15ull,
                     16ull, 1000ull, 1000000ull, 1000000000ull,
                     ~0ull >> 1, ~0ull}) {
    const int b = LatencyHistogram::BucketOf(v);
    ASSERT_GE(b, prev) << "v=" << v;
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    prev = b;
  }
}

TEST(ServeLatency, QuantilesTrackRecordedValues) {
  LatencyHistogram hist;
  // 1000 values at ~100us, 10 at ~10ms: p50 near the low mode, p99
  // within a bucket's width of the high mode, max exact.
  for (int i = 0; i < 1000; ++i) hist.Record(100'000);
  for (int i = 0; i < 10; ++i) hist.Record(10'000'000);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 1010u);
  EXPECT_GT(snap.p50_us, 50.0);
  EXPECT_LT(snap.p50_us, 200.0);
  EXPECT_GT(snap.p99_us, 60.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 10'000.0);
  EXPECT_GT(snap.mean_us, 100.0);
}

TEST(ServeLatency, ConcurrentRecordersLoseNothing) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kEach = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kEach; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Snap().count, uint64_t{kThreads} * kEach);
}

TEST(ServeStats, JsonHasTheContractFields) {
  ServeStats stats;
  stats.AddRows(5);
  stats.AddRequests(2);
  stats.request_latency().Record(1000);
  const std::string json = stats.ToJson();
  for (const char* key :
       {"\"rows\":5", "\"requests\":2", "\"rows_per_sec\"", "\"p50\"",
        "\"p99\"", "\"max\"", "\"swaps\"", "\"uptime_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(ModelRegistry, PublishGetAndVersioning) {
  ThreadPool pool(1);
  ModelRegistry registry(&pool);
  EXPECT_EQ(registry.Get("m"), nullptr);

  std::string error;
  EXPECT_EQ(registry.Publish("m", MakeModel(0.0, false), "a.cmpb", &error),
            1u);
  std::shared_ptr<const ServedModel> v1 = registry.Get("m");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->source_path(), "a.cmpb");

  EXPECT_EQ(registry.Publish("m", MakeModel(0.0, true), "b.cmpb", &error),
            2u);
  std::shared_ptr<const ServedModel> v2 = registry.Get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version(), 2u);

  // RCU: the old version is still fully usable through the retained
  // reference, and disagrees with the new one by construction.
  const double x_neg[] = {-5.0, 0.0};
  const BatchResult old_r = v1->PredictRows(x_neg, nullptr, 1);
  const BatchResult new_r = v2->PredictRows(x_neg, nullptr, 1);
  EXPECT_EQ(old_r.labels[0], 0);
  EXPECT_EQ(new_r.labels[0], 1);
  EXPECT_EQ(registry.size(), 1);

  EXPECT_EQ(registry.Publish("other", MakeModel(1.0, false), "", &error), 1u);
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.List().size(), 2u);

  CompiledModel empty;
  EXPECT_EQ(registry.Publish("bad", std::move(empty), "", &error), 0u);
  EXPECT_FALSE(error.empty());
}

// The TSan-facing test: scorers resolve-and-predict in a tight loop
// while a swapper republishes the model. Any torn read of the model
// pointer, the node arrays, or the blob refcount is a data-race report;
// correctness-wise every reply must be self-consistent with the version
// that produced it.
TEST(ModelRegistry, SwapUnderConcurrentScoring) {
  ThreadPool pool(2);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_EQ(registry.Publish("hot", MakeModel(0.0, false), "", &error), 1u);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> scored{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 3; ++t) {
    scorers.emplace_back([&] {
      const double row_neg[] = {-1.0, 0.0};
      const double row_pos[] = {1.0, 0.0};
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const ServedModel> m = registry.Get("hot");
        ASSERT_NE(m, nullptr);
        const bool flipped = m->version() % 2 == 0;  // even versions flip
        const BatchResult neg = m->PredictRows(row_neg, nullptr, 1);
        const BatchResult pos = m->PredictRows(row_pos, nullptr, 1);
        ASSERT_EQ(neg.labels[0], flipped ? 1 : 0);
        ASSERT_EQ(pos.labels[0], flipped ? 0 : 1);
        scored.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // Swap only once the scorers are running, so the swaps overlap the
  // scoring even when the scheduler starts the threads late.
  const auto start_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scored.load() == 0 &&
         std::chrono::steady_clock::now() < start_deadline) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 50; ++swap) {
    // Versions start at 2 here; flip on even versions keeps the
    // scorers' invariant in lockstep with the publish counter.
    const uint64_t v = registry.Publish(
        "hot", MakeModel(0.0, (swap % 2) == 0), "", &error);
    ASSERT_EQ(v, static_cast<uint64_t>(swap) + 2);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : scorers) t.join();
  EXPECT_GT(scored.load(), 0);
}

// A 2-worker pool whose workers are both parked until Release(), so a
// test decides when scoring starts: the batcher's two slots hand their
// batches to the pool, where they queue behind the parked tasks, and
// rows submitted meanwhile wait in the batcher. (ThreadPool(1) has no
// worker at all; it runs tasks inline on the caller.)
class ParkedPool {
 public:
  ParkedPool() {
    for (int i = 0; i < pool_.num_threads(); ++i) {
      pool_.Submit([this] { gate_.wait(); });
    }
  }
  ~ParkedPool() { Release(); }
  void Release() {
    if (!released_) open_.set_value();
    released_ = true;
  }
  ThreadPool* pool() { return &pool_; }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  bool released_ = false;
  ThreadPool pool_{2};  // declared last: joined before the gate dies
};

std::shared_ptr<const ServedModel> PublishTestModel(ModelRegistry* registry) {
  std::string error;
  EXPECT_NE(registry->Publish("m", MakeModel(0.0, false), "", &error), 0u)
      << error;
  return registry->Get("m");
}

// Rows that arrive while both slots are busy wait for the first slot to
// free up, and that slot takes them all as one batch.
TEST(MicroBatcher, RowsSubmittedDuringAFlushCoalesceIntoOneBatch) {
  ParkedPool parked;
  ServeStats stats;
  MicroBatcher batcher(parked.pool(), BatchPolicy{}, &stats);
  ModelRegistry registry(parked.pool());
  const std::shared_ptr<const ServedModel> model = PublishTestModel(&registry);
  ASSERT_NE(model, nullptr);

  std::vector<std::future<RowReply>> futures;
  for (int i = 0; i < 7; ++i) {  // 2 claim the slots, 5 queue
    futures.push_back(batcher.Submit(model, {i % 2 == 0 ? -1.0 : 1.0, 0.0},
                                     {}, /*want_probs=*/true));
  }
  parked.Release();
  for (int i = 0; i < 7; ++i) {
    const RowReply reply = futures[i].get();
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, i % 2 == 0 ? 0 : 1);
    EXPECT_EQ(reply.model_version, 1u);
    ASSERT_EQ(reply.probs.size(), 2u);
    EXPECT_FLOAT_EQ(reply.probs[i % 2 == 0 ? 0 : 1], 0.9f);
  }
  EXPECT_EQ(stats.rows(), 7u);
  EXPECT_EQ(stats.batches(), 3u);
}

// max_rows caps a batch: with both slots holding one row, 4 queued rows
// score as two batches of 2.
TEST(MicroBatcher, MaxRowsCapsEachBatch) {
  ParkedPool parked;
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 2;
  MicroBatcher batcher(parked.pool(), policy, &stats);
  ModelRegistry registry(parked.pool());
  const std::shared_ptr<const ServedModel> model = PublishTestModel(&registry);
  ASSERT_NE(model, nullptr);

  std::vector<std::future<RowReply>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(batcher.Submit(model, {-1.0, 0.0}, {}, false));
  }
  parked.Release();
  for (std::future<RowReply>& f : futures) {
    const RowReply reply = f.get();
    EXPECT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, 0);
  }
  EXPECT_EQ(stats.rows(), 6u);
  EXPECT_EQ(stats.batches(), 4u);  // 1, 1, 2, 2
}

// Nothing waits for company: a lone row on an idle pool (threaded or
// inline) is scored at once, whatever max_rows is.
TEST(MicroBatcher, LoneRowOnAnIdlePoolResolves) {
  for (const int threads : {1, 2}) {
    ThreadPool pool(threads);
    ServeStats stats;
    BatchPolicy policy;
    policy.max_rows = 1'000'000;
    MicroBatcher batcher(&pool, policy, &stats);
    ModelRegistry registry(&pool);
    const std::shared_ptr<const ServedModel> model =
        PublishTestModel(&registry);
    ASSERT_NE(model, nullptr);

    const RowReply reply =
        batcher.Submit(model, {3.0, 0.0}, {}, /*want_probs=*/false).get();
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.label, 1);
    EXPECT_TRUE(reply.probs.empty());
    EXPECT_EQ(stats.batches(), 1u) << threads << " threads";
  }
}

// Stop() must not return while a batch is in flight (its task still
// touches the batcher); once it returns, every accepted row is scored.
TEST(MicroBatcher, StopWaitsForTheBatchInFlight) {
  ParkedPool parked;
  ServeStats stats;
  MicroBatcher batcher(parked.pool(), BatchPolicy{}, &stats);
  ModelRegistry registry(parked.pool());
  const std::shared_ptr<const ServedModel> model = PublishTestModel(&registry);
  ASSERT_NE(model, nullptr);

  std::vector<std::future<RowReply>> accepted;
  accepted.push_back(batcher.Submit(model, {-1.0, 0.0}, {}, false));
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    batcher.Stop();
    stopped.store(true);
  });
  // Submit until one is rejected: from then on Stop() is underway.
  while (true) {
    std::future<RowReply> f = batcher.Submit(model, {1.0, 0.0}, {}, false);
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const RowReply rejected = f.get();
      EXPECT_FALSE(rejected.ok);
      EXPECT_EQ(rejected.error, "server shutting down");
      break;
    }
    accepted.push_back(std::move(f));
  }
  EXPECT_FALSE(stopped.load());
  parked.Release();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  for (std::future<RowReply>& f : accepted) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }
  EXPECT_EQ(stats.rows(), accepted.size());
}

// On an inline pool each submitting thread scores, one batch at a
// time. A submitter must return once its own rows are taken rather than
// keep scoring what other threads queue behind it: under steady load
// that would hold its reply back indefinitely. Two threads feed 64-row
// requests without waiting for the replies (one row per batch, so
// feeding outpaces scoring). A call that kept the slot until the queue
// ran dry would score nearly all of the other thread's rows; a call that
// returns once its rows are taken scores about two requests' worth (a
// quarter of one thread's rows is the bound). Only batches scored on the
// calling thread count: the global ServeStats count across a call also
// takes in every batch the other thread scores while the caller is
// descheduled.
TEST(MicroBatcher, InlineSubmitterReturnsOnceItsRowsAreTaken) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 1;
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  const std::shared_ptr<const ServedModel> model = PublishTestModel(&registry);
  ASSERT_NE(model, nullptr);

  constexpr int kCalls = 500;
  constexpr int kRows = 64;
  std::atomic<uint64_t> longest{0};  // most batches one call scored itself
  auto feed = [&] {
    for (int c = 0; c < kCalls; ++c) {
      std::vector<ScoreRow> rows;
      for (int r = 0; r < kRows; ++r) {
        rows.push_back({model, {-1.0, 0.0}, {}, false});
      }
      const uint64_t before = MicroBatcher::BatchesScoredOnThisThread();
      batcher.SubmitAll(std::move(rows));
      const uint64_t span =
          MicroBatcher::BatchesScoredOnThisThread() - before;
      uint64_t seen = longest.load();
      while (span > seen && !longest.compare_exchange_weak(seen, span)) {
      }
    }
  };
  std::thread other(feed);
  feed();
  other.join();
  batcher.Stop();
  EXPECT_EQ(stats.rows(), uint64_t{2} * kCalls * kRows);
  EXPECT_LE(longest.load(), uint64_t{kCalls} * kRows / 4);
}

// Two rows against each of two versions, interleaved in one request,
// score as one batch: the mid-queue swap scenario in miniature. The
// batch must group rows by model instance, not by name, and score each
// group with one call (stats counts a scoring call per group: 2 here;
// rows that never shared a batch would count 4).
TEST(MicroBatcher, MixedModelsInOneFlushScoreOnTheirOwnVersion) {
  ThreadPool pool(1);
  ServeStats stats;
  BatchPolicy policy;
  policy.max_rows = 4;
  MicroBatcher batcher(&pool, policy, &stats);
  ModelRegistry registry(&pool);
  std::string error;
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, false), "", &error), 0u);
  std::shared_ptr<const ServedModel> v1 = registry.Get("m");
  ASSERT_NE(registry.Publish("m", MakeModel(0.0, true), "", &error), 0u);
  std::shared_ptr<const ServedModel> v2 = registry.Get("m");

  std::vector<ScoreRow> rows;
  rows.push_back({v1, {-1.0, 0.0}, {}, false});
  rows.push_back({v2, {-1.0, 0.0}, {}, false});
  rows.push_back({v1, {1.0, 0.0}, {}, false});
  rows.push_back({v2, {1.0, 0.0}, {}, false});
  std::vector<std::future<RowReply>> futures =
      batcher.SubmitAll(std::move(rows));
  const ClassId expect[] = {0, 1, 1, 0};
  for (int i = 0; i < 4; ++i) {
    RowReply reply = futures[i].get();
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.label, expect[i]) << i;
    EXPECT_EQ(reply.model_version, i % 2 == 0 ? 1u : 2u);
  }
  EXPECT_EQ(stats.batches(), 2u);
}

// A row still queued in the batcher (both slots busy) when Stop() is
// called is scored before Stop() returns; a submission after that is
// rejected.
TEST(MicroBatcher, StopFlushesPendingAndRejectsNewWork) {
  ParkedPool parked;
  ServeStats stats;
  MicroBatcher batcher(parked.pool(), BatchPolicy{}, &stats);
  ModelRegistry registry(parked.pool());
  const std::shared_ptr<const ServedModel> model = PublishTestModel(&registry);
  ASSERT_NE(model, nullptr);

  batcher.Submit(model, {1.0, 0.0}, {}, false);  // claims a slot
  batcher.Submit(model, {1.0, 0.0}, {}, false);  // claims the other
  std::future<RowReply> pending =
      batcher.Submit(model, {-2.0, 0.0}, {}, false);
  std::thread stopper([&] { batcher.Stop(); });
  // Probe until one is rejected: from then on Stop() is underway.
  while (batcher.Submit(model, {1.0, 0.0}, {}, false)
             .wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
  }
  EXPECT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  parked.Release();
  stopper.join();
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const RowReply flushed = pending.get();
  ASSERT_TRUE(flushed.ok) << flushed.error;
  EXPECT_EQ(flushed.label, 0);

  const RowReply rejected =
      batcher.Submit(model, {0.0, 0.0}, {}, false).get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "server shutting down");
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    blob_a_ = std::string(::testing::TempDir()) + "/serve_a.cmpb";
    blob_b_ = std::string(::testing::TempDir()) + "/serve_b.cmpb";
    const DecisionTree a = MakeTree(0.0, false);
    const DecisionTree b = MakeTree(0.0, true);
    std::string error;
    ASSERT_TRUE(SaveModelBlob({&a}, blob_a_, &error)) << error;
    ASSERT_TRUE(SaveModelBlob({&b}, blob_b_, &error)) << error;
  }
  void TearDown() override {
    std::remove(blob_a_.c_str());
    std::remove(blob_b_.c_str());
  }
  std::string blob_a_;
  std::string blob_b_;
};

TEST_F(ServeDaemonTest, ServesPredictionsOverTcp) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u)
      << error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  ASSERT_GT(daemon.port(), 0);

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("predict m -3.5,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  ASSERT_TRUE(client.Rpc("predict m 3.5,0", &reply));
  EXPECT_EQ(reply, "ok pos");
  ASSERT_TRUE(client.Rpc("predictp m 3.5,0", &reply));
  EXPECT_EQ(reply.rfind("ok pos ", 0), 0u) << reply;
  ASSERT_TRUE(client.Rpc("predict m 1,2,3", &reply));
  EXPECT_EQ(reply.rfind("err ", 0), 0u);
  ASSERT_TRUE(client.Rpc("predict ghost 1,2", &reply));
  EXPECT_EQ(reply, "err unknown model 'ghost'");
  ASSERT_TRUE(client.Rpc("bogus", &reply));
  EXPECT_EQ(reply.rfind("err unknown verb", 0), 0u);

  std::vector<std::string> replies;
  ASSERT_TRUE(client.Batch("m", {"-1,0", "1,0", "oops"}, &replies));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "ok neg");
  EXPECT_EQ(replies[1], "ok pos");
  EXPECT_EQ(replies[2].rfind("err ", 0), 0u);

  ASSERT_TRUE(client.Rpc("stats", &reply));
  EXPECT_EQ(reply.rfind("ok {", 0), 0u);
  EXPECT_NE(reply.find("\"p99\""), std::string::npos);

  daemon.Shutdown();
}

TEST_F(ServeDaemonTest, ServesOverUnixSocket) {
  ServeOptions opts;
  opts.unix_path = std::string(::testing::TempDir()) + "/cmpserve_test.sock";
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("predict m -1,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  daemon.Shutdown();
}

TEST_F(ServeDaemonTest, QuitShutsTheDaemonDown) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.Rpc("quit", &reply));
  EXPECT_EQ(reply, "ok bye");
  EXPECT_TRUE(daemon.WaitFor(5000));
  daemon.Shutdown();
}

// Hot swap under concurrent traffic, in-process: several client threads
// hammer predict while the main thread swaps between two models whose
// answers differ on every row. Every reply must be exactly one model's
// answer — "neg" or "pos", never garbage, never a hang — and the swap
// must be visible eventually.
TEST_F(ServeDaemonTest, HotSwapUnderConcurrentTraffic) {
  ServeOptions opts;
  opts.batch.max_rows = 8;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> replies{0};
  std::atomic<int64_t> flipped_seen{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client;
      std::string cerr_msg;
      ASSERT_TRUE(
          client.ConnectTcp("127.0.0.1", daemon.port(), &cerr_msg))
          << cerr_msg;
      std::string reply;
      while (!stop.load(std::memory_order_relaxed)) {
        // Row is on the neg side of model A, pos side answer under
        // model B (flipped leaves).
        if (!client.Rpc("predict m -2,0", &reply)) break;
        ASSERT_TRUE(reply == "ok neg" || reply == "ok pos") << reply;
        replies.fetch_add(1, std::memory_order_relaxed);
        if (reply == "ok pos") {
          flipped_seen.fetch_add(1, std::memory_order_relaxed);
        }
        (void)t;
      }
    });
  }

  ServeClient admin;
  ASSERT_TRUE(admin.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::string reply;
  for (int swap = 0; swap < 10; ++swap) {
    const std::string& path = swap % 2 == 0 ? blob_b_ : blob_a_;
    ASSERT_TRUE(admin.Rpc("swap m " + path, &reply));
    EXPECT_EQ(reply.rfind("ok m v", 0), 0u) << reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(replies.load(), 0);
  EXPECT_GT(flipped_seen.load(), 0);  // at least one reply from model B
  ASSERT_TRUE(admin.Rpc("stats", &reply));
  EXPECT_NE(reply.find("\"swaps\":10"), std::string::npos) << reply;
  daemon.Shutdown();
}

// A plain blocking TCP connection to the daemon, for clients that
// misbehave in ways ServeClient cannot.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads one '\n'-terminated line from `fd`, giving up at `deadline`.
// False on timeout; on EOF or a reset returns whatever arrived first.
bool ReadLineBefore(int fd, std::chrono::steady_clock::time_point deadline,
                    std::string* line) {
  line->clear();
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char c;
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0 || c == '\n') return true;
    line->push_back(c);
  }
}

// A client that streams one newline-free line of over 64 MiB must be cut
// off at the fixed line cap: "err line too long" and a closed connection
// within seconds, not a reader buffering (and rescanning) the whole line.
TEST_F(ServeDaemonTest, OverlongLineIsRejectedQuickly) {
  ServeOptions opts;
  opts.num_threads = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const int fd = ConnectRaw(daemon.port());
  ASSERT_GE(fd, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::thread sender([fd] {
    const std::string chunk(64 * 1024, '7');
    for (size_t sent = 0; sent <= (size_t{64} << 20); sent += chunk.size()) {
      if (!SendAll(fd, chunk)) return;  // the daemon hung up
    }
  });
  std::string reply;
  const bool answered = ReadLineBefore(fd, deadline, &reply);
  ::shutdown(fd, SHUT_RDWR);  // unblocks the sender either way
  sender.join();
  ::close(fd);
  EXPECT_TRUE(answered) << "no reply within 5 s";
  EXPECT_EQ(reply, "err line too long");

  // The daemon keeps serving other clients.
  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  ASSERT_TRUE(client.Rpc("predict m -1,0", &reply));
  EXPECT_EQ(reply, "ok neg");
  daemon.Shutdown();
}

// Live threads of this process.
int CountThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

// Virtual size of this process in KiB (VmSize in /proc/self/status).
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::atol(line.c_str() + 7);
  }
  return -1;
}

// A handler thread that is never joined keeps its stack mapped until
// Shutdown. After many short connections the daemon must hold only the
// threads (and stacks) of connections that are still open.
TEST_F(ServeDaemonTest, ShortConnectionsDoNotAccumulateThreads) {
  ServeOptions opts;
  opts.num_threads = 1;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  // One connection first, so lazily created state is in the baseline.
  {
    ServeClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error));
    std::string reply;
    ASSERT_TRUE(client.Rpc("stats", &reply));
  }
  const int threads_before = CountThreads();
  const long vm_before_kb = VmSizeKb();
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_before_kb, 0);

  int max_threads = threads_before;
  for (int i = 0; i < 2000; ++i) {
    ServeClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error))
        << error;
    std::string reply;
    ASSERT_TRUE(client.Rpc("stats", &reply));
    ASSERT_EQ(reply.rfind("ok {", 0), 0u) << reply;
    client.Close();
    if (i % 100 == 0) max_threads = std::max(max_threads, CountThreads());
  }
  max_threads = std::max(max_threads, CountThreads());
  // A handful of handlers may still be draining their EOF; 2,000 leaked
  // 8 MiB stacks would add ~16 GiB of address space.
  EXPECT_LE(max_threads, threads_before + 32);
  EXPECT_LE(VmSizeKb() - vm_before_kb, 512L * 1024)
      << "address space grew by " << (VmSizeKb() - vm_before_kb) << " KiB";
  daemon.Shutdown();
}

// Back-to-back `batch` calls on one connection must cost about what
// scoring them costs. With Nagle on and a reply written line by line,
// each call waited out the client's delayed ACK (~40 ms).
TEST_F(ServeDaemonTest, SequentialBatchesDoNotStall) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  std::vector<std::string> rows;
  for (int i = 0; i < 64; ++i) rows.push_back(i % 2 == 0 ? "-1,0" : "1,0");
  std::vector<double> rtt_ms;
  std::vector<std::string> replies;
  for (int call = 0; call < 50; ++call) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Batch("m", rows, &replies));
    rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    ASSERT_EQ(replies.size(), rows.size());
    EXPECT_EQ(replies[0], "ok neg");
    EXPECT_EQ(replies[63], "ok pos");
  }
  std::nth_element(rtt_ms.begin(), rtt_ms.begin() + 25, rtt_ms.end());
  EXPECT_LT(rtt_ms[25], 10.0) << "median batch round trip (ms)";
  daemon.Shutdown();
}

// Requests pipelined into one write are answered in request order, one
// reply (or `batch` reply set) per request, with each `err` in its own
// slot; `stats` counts every row sent before it; and a run of predicts
// longer than one 4 KiB read, and than one batch (max_rows), is split
// without losing order.
TEST_F(ServeDaemonTest, PipelinedRequestsAnswerInOrder) {
  ServeOptions opts;
  opts.batch.max_rows = 64;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  std::string payload =
      "predict m -1,0\n"
      "predict m 1,2,3\n"
      "predictp m 1,0\n"
      "batch m 3\n-1,0\n1,0\n-2,0\n"
      "bogus\n"
      "stats";
  for (int i = 0; i < 300; ++i) {
    payload += i % 3 == 0 ? "\npredict m 2," : "\npredict m -2,";
    payload += std::to_string(i);
  }
  ServeClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", daemon.port(), &error)) << error;
  ASSERT_TRUE(client.Send(payload));  // one send() for the whole script

  std::string reply;
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply, "ok neg");
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply, "err expected 2 fields");
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply.rfind("ok pos ", 0), 0u) << reply;
  for (const char* want : {"ok neg", "ok pos", "ok neg", "done 3"}) {
    ASSERT_TRUE(client.Recv(&reply));
    EXPECT_EQ(reply, want);
  }
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply, "err unknown verb 'bogus'");
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply.rfind("ok {", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"rows\":5,"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"requests\":5,"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"protocol_errors\":2,"), std::string::npos) << reply;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(client.Recv(&reply)) << i;
    EXPECT_EQ(reply, i % 3 == 0 ? "ok pos" : "ok neg") << i;
  }
  EXPECT_EQ(daemon.stats().rows(), 305u);
  daemon.Shutdown();
}

// A line over the cap that follows buffered predicts: the predicts are
// still answered, then "err line too long", then the daemon hangs up.
TEST_F(ServeDaemonTest, OverlongLineAfterBufferedPredicts) {
  ServeOptions opts;
  ServeDaemon daemon(opts);
  std::string error;
  ASSERT_NE(daemon.registry().PublishFromFile("m", blob_a_, &error), 0u);
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const int fd = ConnectRaw(daemon.port());
  ASSERT_GE(fd, 0);
  std::thread sender([fd] {
    if (!SendAll(fd, "predict m -1,0\npredict m 1,0\npredict m -3,0\n")) {
      return;
    }
    const std::string chunk(64 * 1024, '7');
    for (size_t sent = 0; sent <= kMaxLineBytes + chunk.size();
         sent += chunk.size()) {
      if (!SendAll(fd, chunk)) return;  // the daemon hung up
    }
    SendAll(fd, "\n");
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<std::string> replies;
  std::string line;
  for (int i = 0; i < 4 && ReadLineBefore(fd, deadline, &line); ++i) {
    replies.push_back(line);
  }
  const bool closed = ReadLineBefore(fd, deadline, &line) && line.empty();
  ::shutdown(fd, SHUT_RDWR);
  sender.join();
  ::close(fd);
  EXPECT_EQ(replies, (std::vector<std::string>{"ok neg", "ok pos", "ok neg",
                                               "err line too long"}));
  EXPECT_TRUE(closed);
  daemon.Shutdown();
}

}  // namespace
}  // namespace cmp
