#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generator for the `serve` workload.
//
// Requests are sent on a fixed schedule whatever the daemon's speed
// (independent users, not callers waiting for replies), so a stall
// queues later requests behind it. Latency is timed from each request's
// due time, which charges that queueing to the requests it delays, and
// the generator reports how late it itself sent.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

// The traffic shape: half of the rows go as single-row `predict`
// requests, half as kBatchRows-row `batch` requests, each kind on
// kConnsPerKind connections (one generator thread per connection).
constexpr int kBatchRows = 64;
constexpr int kConnsPerKind = 2;

struct LoadConfig {
  int port = 0;
  std::string model;
  /// Rows as CSV lines and the label each must be answered with.
  const std::vector<std::string>* rows = nullptr;
  const std::vector<std::string>* expected = nullptr;
  /// True labels of the same rows, for the served accuracy.
  const std::vector<std::string>* truth = nullptr;
  double rows_per_s = 0.0;  // total offered rate, both request kinds
  double seconds = 0.0;     // schedule length
  uint64_t row_offset = 0;  // where in `rows` this step starts
};

struct LoadResult {
  std::vector<double> predict_us;  // due -> reply, per predict request
  std::vector<double> batch_us;    // due -> last reply line, per batch
  std::vector<double> lag_us;      // due -> written to the socket
  int64_t requests_attempted = 0;  // sent; shed requests are not
  int64_t requests_shed = 0;  // never sent: the step was cut short
  int64_t requests_failed = 0;  // err reply, wrong label, timeout, refused
  int64_t rows_answered = 0;
  /// rows_answered ÷ time from the first request's due time to the last
  /// reply: the rate actually served.
  double served_rows_per_s = 0.0;
  int64_t rows_correct_vs_truth = 0;
  int64_t wrong_labels = 0;
  int64_t err_replies = 0;
  int64_t timeouts = 0;
  int64_t refused = 0;
  int64_t backlog_max_rows = 0;
  bool backlog_grew = false;  // includes a step cut short
};

/// Runs one fixed-rate step against a listening daemon. Replies still
/// missing 2 s after the schedule ends time out. The step is cut short
/// once more rows are outstanding than the offered rate produces in
/// 0.1 s (at least 8 batches' worth): the daemon has fallen behind, and
/// requests not yet sent are shed rather than queued. The backlog also
/// counts as growing when a kind's median latency in the schedule's last
/// quarter exceeds twice its first quarter's plus 1 ms.
LoadResult RunLoadStep(const LoadConfig& config, Tracer* tracer);

/// Sends one admin line on a fresh connection and returns the reply
/// line ("" on failure).
std::string AdminRequest(int port, const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
