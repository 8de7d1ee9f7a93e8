// bench_serve: end-to-end serving throughput and latency through the
// real daemon — TCP sockets, line protocol, micro-batcher and all.
//
// Trains two CMP trees on Agrawal data (different generator functions,
// same schema), compiles both to `.cmpb` blobs, starts an in-process
// ServeDaemon on an ephemeral port, and hammers it with concurrent
// clients issuing `batch` requests. Halfway through, an admin
// connection hot-swaps the served model A -> B while traffic keeps
// flowing. Every reply is checked against the labels `cmptool predict`
// would emit for that row under model A or B — a torn or garbled reply
// fails the run — and replies matching model B must appear after the
// swap acks.
//
// Reports sustained rows/sec, the server's own per-request latency
// percentiles (enqueue -> reply fulfilled), and client-observed batch
// round-trip percentiles. Results go to stdout and BENCH_serve.json
// (or argv[1]). CMP_BENCH_SCALE scales the row-set size; the hammer
// duration is fixed.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cmp/cmp.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "infer/batch_predictor.h"
#include "infer/model_io.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using cmp::Dataset;
using cmp::DecisionTree;

// One CSV line per record, fields in schema order, doubles printed with
// round-trip precision so the daemon's strtod recovers the exact value
// the in-process predictor saw.
std::vector<std::string> FormatRows(const Dataset& data) {
  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(data.num_records()));
  char buf[64];
  for (int64_t r = 0; r < data.num_records(); ++r) {
    std::string row;
    for (int32_t a = 0; a < data.num_attrs(); ++a) {
      if (a > 0) row += ',';
      if (data.schema().is_numeric(a)) {
        std::snprintf(buf, sizeof(buf), "%.17g", data.numeric(a, r));
        row += buf;
      } else {
        row += std::to_string(data.categorical(a, r));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// The labels the batch predictor (cmptool predict's scoring path)
// assigns — the ground truth every served reply is compared against.
std::vector<std::string> ExpectedLabels(const cmp::CompiledModel& model,
                                        const Dataset& data) {
  cmp::PredictOptions opts;
  const cmp::BatchPredictor predictor(&model.trees.front(), opts);
  const cmp::BatchResult result = predictor.Predict(data, nullptr);
  std::vector<std::string> labels;
  labels.reserve(result.labels.size());
  for (const int32_t label : result.labels) {
    labels.push_back(model.schema->class_name(label));
  }
  return labels;
}

double Quantile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t at = std::min(
      sorted->size() - 1, static_cast<size_t>(q * (sorted->size() - 1)));
  return (*sorted)[at];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::string blob_a = "/tmp/cmp_bench_serve_a.cmpb";
  const std::string blob_b = "/tmp/cmp_bench_serve_b.cmpb";
  const int kClients = 4;
  const int kBatchRows = 64;
  const double kHammerSeconds = 2.0;
  const int64_t rows_n = std::max<int64_t>(
      static_cast<int64_t>(200000 * cmp::bench::Scale()), 20000);

  // Two models over the same schema that disagree on many rows: the
  // generator's function changes the concept, not the attributes.
  cmp::AgrawalOptions gen;
  gen.num_records = rows_n;
  gen.seed = 21;
  gen.function = cmp::AgrawalFunction::kF2;
  const Dataset train_a = cmp::GenerateAgrawal(gen);
  gen.seed = 22;
  gen.function = cmp::AgrawalFunction::kF3;
  const Dataset train_b = cmp::GenerateAgrawal(gen);
  gen.seed = 23;
  gen.function = cmp::AgrawalFunction::kF2;
  const Dataset rows_data = cmp::GenerateAgrawal(gen);

  cmp::CmpOptions opts = cmp::CmpFullOptions();
  cmp::CmpBuilder builder(opts);
  const DecisionTree tree_a = builder.Build(train_a).tree;
  const DecisionTree tree_b = builder.Build(train_b).tree;

  std::string error;
  const cmp::CompiledModel model_a = cmp::CompileModel({&tree_a}, &error);
  const cmp::CompiledModel model_b = cmp::CompileModel({&tree_b}, &error);
  if (model_a.empty() || model_b.empty() ||
      !cmp::SaveModelBlob({&tree_a}, blob_a, &error) ||
      !cmp::SaveModelBlob({&tree_b}, blob_b, &error)) {
    std::cerr << "model setup failed: " << error << "\n";
    return 1;
  }

  const std::vector<std::string> rows = FormatRows(rows_data);
  const std::vector<std::string> expect_a = ExpectedLabels(model_a, rows_data);
  const std::vector<std::string> expect_b = ExpectedLabels(model_b, rows_data);
  int64_t disagreements = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    disagreements += expect_a[i] != expect_b[i];
  }
  std::cout << "serving " << rows.size() << " distinct rows; trees "
            << tree_a.num_nodes() << " / " << tree_b.num_nodes()
            << " nodes; models disagree on " << disagreements << " rows\n";

  cmp::ServeOptions serve_opts;
  serve_opts.port = 0;
  cmp::ServeDaemon daemon(serve_opts);
  if (daemon.registry().PublishFromFile("m", blob_a, &error) == 0 ||
      !daemon.Start(&error)) {
    std::cerr << "daemon setup failed: " << error << "\n";
    return 1;
  }
  const int port = daemon.port();

  std::atomic<bool> stop{false};
  std::atomic<bool> swap_acked{false};
  std::atomic<int64_t> total_rows{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> post_swap_b{0};
  std::vector<std::vector<double>> batch_us(kClients);  // round-trip, µs
  std::vector<std::thread> clients;

  cmp::Timer hammer;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      cmp::ServeClient client;
      std::string err;
      if (!client.ConnectTcp("127.0.0.1", port, &err)) return;
      size_t at = static_cast<size_t>(c) * rows.size() / kClients;
      std::vector<std::string> batch(kBatchRows);
      std::vector<size_t> ids(kBatchRows);
      std::vector<std::string> replies;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kBatchRows; ++i) {
          ids[i] = at++ % rows.size();
          batch[i] = rows[ids[i]];
        }
        cmp::Timer rtt;
        if (!client.Batch("m", batch, &replies)) break;
        batch_us[c].push_back(rtt.Seconds() * 1e6);
        const bool after_swap = swap_acked.load(std::memory_order_acquire);
        for (int i = 0; i < kBatchRows; ++i) {
          const std::string& r = replies[i];
          const bool is_a = r == "ok " + expect_a[ids[i]];
          const bool is_b = r == "ok " + expect_b[ids[i]];
          // Rows where the models agree say nothing about which version
          // served them, so only count disagreeing rows toward B.
          if (after_swap && is_b && !is_a) {
            post_swap_b.fetch_add(1, std::memory_order_relaxed);
          }
          if (!is_a && !is_b) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        total_rows.fetch_add(kBatchRows, std::memory_order_relaxed);
      }
    });
  }

  // Hot swap at the midpoint, through the protocol like any operator.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kHammerSeconds * 500)));
  double swap_ack_us = 0.0;
  {
    cmp::ServeClient admin;
    std::string reply;
    cmp::Timer swap_timer;
    if (!admin.ConnectTcp("127.0.0.1", port, &error) ||
        !admin.Rpc("swap m " + blob_b, &reply) || reply != "ok m v2") {
      std::cerr << "hot swap failed: " << reply << " " << error << "\n";
      stop.store(true);
      for (std::thread& t : clients) t.join();
      return 1;
    }
    swap_ack_us = swap_timer.Seconds() * 1e6;
    swap_acked.store(true, std::memory_order_release);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kHammerSeconds * 500)));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double wall = hammer.Seconds();

  const cmp::LatencyHistogram::Snapshot lat =
      daemon.stats().request_latency().Snap();
  const uint64_t swaps = daemon.stats().swaps();
  daemon.Shutdown();

  std::vector<double> all_rtt;
  for (const auto& v : batch_us) all_rtt.insert(all_rtt.end(), v.begin(),
                                                v.end());
  std::vector<double> rtt_copy = all_rtt;
  const double rtt_p50 = Quantile(&rtt_copy, 0.50);
  const double rtt_p99 = Quantile(&rtt_copy, 0.99);
  const double rows_per_sec = static_cast<double>(total_rows.load()) / wall;

  const bool ok = mismatches.load() == 0 && post_swap_b.load() > 0 &&
                  swaps == 1 && total_rows.load() > 0;
  std::printf("\n%-28s %12.0f rows/sec (%d clients, batch %d, %.1fs)\n",
              "sustained throughput", rows_per_sec, kClients, kBatchRows,
              wall);
  std::printf("%-28s p50 %.0f  p99 %.0f  max %.0f  (µs, server-side)\n",
              "request latency", lat.p50_us, lat.p99_us, lat.max_us);
  std::printf("%-28s p50 %.0f  p99 %.0f  (µs, %zu batches)\n",
              "batch round-trip", rtt_p50, rtt_p99, all_rtt.size());
  std::printf("%-28s ack %.0f µs; %lld model-B rows after ack\n", "hot swap",
              swap_ack_us,
              static_cast<long long>(post_swap_b.load()));
  std::printf("%-28s %s (%lld mismatched replies)\n", "correctness",
              ok ? "every reply matched model A or B" : "FAILED",
              static_cast<long long>(mismatches.load()));

  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"clients\": " << kClients << ",\n"
       << "  \"batch_rows\": " << kBatchRows << ",\n"
       << "  \"distinct_rows\": " << rows.size() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"commit\": \"" << cmp::bench::GitCommit() << "\",\n"
       << "  \"duration_s\": " << wall << ",\n"
       << "  \"rows_served\": " << total_rows.load() << ",\n"
       << "  \"rows_per_sec\": " << rows_per_sec << ",\n"
       << "  \"server_latency_us\": {\"p50\": " << lat.p50_us
       << ", \"p99\": " << lat.p99_us << ", \"max\": " << lat.max_us
       << ", \"mean\": " << lat.mean_us << ", \"count\": " << lat.count
       << "},\n"
       << "  \"batch_rtt_us\": {\"p50\": " << rtt_p50 << ", \"p99\": "
       << rtt_p99 << "},\n"
       << "  \"swaps\": " << swaps << ",\n"
       << "  \"swap_ack_us\": " << swap_ack_us << ",\n"
       << "  \"post_swap_model_b_rows\": " << post_swap_b.load() << ",\n"
       << "  \"mismatched_replies\": " << mismatches.load() << ",\n"
       << "  \"correct\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";

  std::remove(blob_a.c_str());
  std::remove(blob_b.c_str());
  return ok ? 0 : 1;
}
