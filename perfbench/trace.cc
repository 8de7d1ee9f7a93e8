#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small per-thread ids for the trace viewer's rows.
int ThreadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

// Spans opened and not yet closed on this thread, innermost last. Only
// an enabled tracer opens spans, and a process has one.
thread_local std::vector<SpanRecord> t_open;

// Length of the union of [lo, hi) intervals, clipped to [t0, t1).
double UnionSeconds(std::vector<std::pair<int64_t, int64_t>> iv, int64_t t0,
                    int64_t t1) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool have = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, t0);
    hi = std::min(hi, t1);
    if (hi <= lo) continue;
    if (have && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (have) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    have = true;
  }
  if (have) covered += cur_hi - cur_lo;
  return static_cast<double>(covered) * 1e-9;
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(SteadyNs()) {}

int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

void Tracer::Record(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

int64_t Tracer::Open(const std::string& layer, const std::string& name) {
  if (!enabled_) return 0;
  SpanRecord rec;
  rec.layer = layer;
  rec.name = name;
  rec.start_ns = NowNs();
  rec.id = next_id_.fetch_add(1);
  rec.parent = t_open.empty() ? 0 : t_open.back().id;
  rec.tid = ThreadId();
  t_open.push_back(std::move(rec));
  return t_open.back().id;
}

void Tracer::Close(int64_t id) {
  if (id == 0 || t_open.empty() || t_open.back().id != id) return;
  SpanRecord rec = std::move(t_open.back());
  t_open.pop_back();
  rec.dur_ns = NowNs() - rec.start_ns;
  Record(std::move(rec));
}

void Tracer::AddComplete(const std::string& layer, const std::string& name,
                         int64_t start_ns, int64_t dur_ns) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.layer = layer;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.dur_ns = std::max<int64_t>(dur_ns, 0);
  rec.id = next_id_.fetch_add(1);
  rec.parent = t_open.empty() ? 0 : t_open.back().id;
  rec.tid = ThreadId();
  Record(std::move(rec));
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) {
      children[s.parent].push_back({s.start_ns, s.start_ns + s.dur_ns});
    }
  }
  // Each span's self intervals (its interval minus its children's),
  // pooled per layer and thread. Spans of one thread can overlap (a
  // connection with several requests in flight), so a layer's self time
  // on a thread is the union of its pieces, not their sum.
  std::map<std::pair<std::string, int>,
           std::vector<std::pair<int64_t, int64_t>>>
      pieces;
  for (const SpanRecord& s : spans_) {
    auto& out = pieces[{s.layer, s.tid}];
    int64_t cursor = s.start_ns;
    const int64_t end = s.start_ns + s.dur_ns;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> kids = it->second;
      std::sort(kids.begin(), kids.end());
      for (auto [lo, hi] : kids) {
        if (lo > cursor) out.push_back({cursor, std::min(lo, end)});
        cursor = std::max(cursor, hi);
        if (cursor >= end) break;
      }
    }
    if (cursor < end) out.push_back({cursor, end});
  }
  std::map<std::string, double> self;
  for (auto& [key, iv] : pieces) {
    self[key.first] += UnionSeconds(std::move(iv), INT64_MIN, INT64_MAX);
  }
  return self;
}

double Tracer::CoveredSeconds(int64_t t0_ns, int64_t t1_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const SpanRecord& s : spans_) {
    if (s.layer != "bench") iv.push_back({s.start_ns, s.start_ns + s.dur_ns});
  }
  return UnionSeconds(std::move(iv), t0_ns, t1_ns);
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfSecondsByLayer();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  char buf[256];
  for (const auto& [layer, seconds] : self) {
    if (!first) out += ',';
    first = false;
    out += "\"self_s.";
    JsonEscape(layer, &out);
    std::snprintf(buf, sizeof(buf), "\":%.9g", seconds);
    out += buf;
  }
  out += "},\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    first = true;
    for (const SpanRecord& s : spans_) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"ph\":\"X\",\"pid\":1,\"name\":\"";
      JsonEscape(s.name, &out);
      out += "\",\"cat\":\"";
      JsonEscape(s.layer, &out);
      std::snprintf(buf, sizeof(buf),
                    "\",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%lld,\"parent\":%lld}}",
                    s.tid, static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3,
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent));
      out += buf;
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
