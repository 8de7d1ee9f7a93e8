#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recorder for the benchmark's traced runs (--trace 1).
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a layer of the system (io, hist, cmp, tree, dist, infer,
// serve). They are kept in memory and written once, at the end, as
// Chrome trace-event JSON, which opens in Perfetto or chrome://tracing.
// A disabled tracer records nothing, so the untraced run that yields
// the end-to-end metrics pays only a branch per span.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string layer;  // "io", "cmp", ... ("bench" for the driver's own)
  std::string name;
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t dur_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = no enclosing span on the recording thread
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Nanoseconds since the tracer was created (steady clock).
  int64_t NowNs() const;

  /// Opens a span on the calling thread; returns its id (0 if disabled).
  int64_t Open(const std::string& layer, const std::string& name);
  /// Closes the span `id` opened by this thread.
  void Close(int64_t id);
  /// Records an already-finished span [start_ns, start_ns + dur_ns) as a
  /// child of the span currently open on the calling thread. Used for
  /// phases the library reports as durations (the training observer's
  /// per-pass scan/plan/finish seconds).
  void AddComplete(const std::string& layer, const std::string& name,
                   int64_t start_ns, int64_t dur_ns);

  /// Self time per layer, seconds: each span's duration minus the part
  /// of it that its child spans cover (overlapping spans of one thread
  /// counted once).
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Seconds of [t0_ns, t1_ns) covered by at least one span whose layer
  /// is not "bench".
  double CoveredSeconds(int64_t t0_ns, int64_t t1_ns) const;
  /// Writes every span as Chrome trace-event JSON ("X" events), with the
  /// per-layer self times under "otherData".
  bool WriteChromeJson(const std::string& path) const;

 private:
  void Record(SpanRecord rec);

  const bool enabled_;
  const int64_t epoch_ns_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_; closed spans only
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer* tracer, const std::string& layer, const std::string& name)
      : tracer_(tracer), id_(tracer->Open(layer, name)) {}
  ~Span() { tracer_->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
