#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

constexpr double kDrainSeconds = 2.0;
constexpr double kAbortBacklogSeconds = 0.1;

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  // The generator sends each request the moment it is due; Nagle on the
  // client side would add its own delay to the measurement.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Request {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = -1;  // -1: never answered
  size_t first_row = 0;
  int rows = 0;
  int lines_seen = 0;
  bool failed = false;
  bool shed = false;  // never sent: the step was cut short first
};

struct ConnResult {
  std::vector<Request> requests;
  int64_t wrong = 0;
  int64_t errs = 0;
  int64_t correct_vs_truth = 0;
  int64_t rows_answered = 0;
  bool refused = false;
};

// Shared by a step's connections: rows sent and not yet answered.
struct StepState {
  std::atomic<int64_t> outstanding{0};
  std::atomic<bool> aborted{false};
  int64_t abort_rows = 0;
};

// One connection's schedule: `count` requests of `rows` rows each, due
// every `interval_ns` from `first_due_ns`.
void RunConnection(const LoadConfig& cfg, Tracer* tracer, StepState* step,
                   bool batch, int slot, int64_t first_due_ns, double interval_ns,
                   int64_t count, ConnResult* res) {
  const size_t n_rows = cfg.rows->size();
  const int rows_per_req = batch ? kBatchRows : 1;
  const int slots = 2 * kConnsPerKind;
  res->requests.resize(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Request& r = res->requests[static_cast<size_t>(i)];
    r.due_ns = first_due_ns + static_cast<int64_t>(interval_ns * i);
    r.first_row = static_cast<size_t>(
        (cfg.row_offset + static_cast<uint64_t>(i * slots + slot) *
                              static_cast<uint64_t>(rows_per_req)) %
        n_rows);
    r.rows = rows_per_req;
  }
  const int fd = ConnectLoopback(cfg.port);
  if (fd < 0) {
    res->refused = true;
    for (Request& r : res->requests) r.failed = true;
    return;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  const int64_t drain_end =
      first_due_ns + static_cast<int64_t>(interval_ns * count) +
      static_cast<int64_t>(kDrainSeconds * 1e9);
  const char* kind = batch ? "batch" : "predict";
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t next = 0;      // next request to send
  size_t answered = 0;  // requests are answered in FIFO order
  char buf[65536];
  bool broken = false;

  // One reply line for the request at the head of the FIFO.
  auto on_line = [&](const std::string& line) {
    Request& r = res->requests[answered];
    const bool is_done_line = batch && r.lines_seen == r.rows;
    if (!is_done_line) {
      const size_t row = (r.first_row + static_cast<size_t>(r.lines_seen)) %
                         n_rows;
      if (line.rfind("ok ", 0) == 0) {
        const std::string label = line.substr(3);
        ++res->rows_answered;
        if (label != (*cfg.expected)[row]) {
          ++res->wrong;
          r.failed = true;
        }
        if (label == (*cfg.truth)[row]) ++res->correct_vs_truth;
      } else {
        ++res->errs;
        r.failed = true;
      }
    } else if (line.rfind("done ", 0) != 0) {
      ++res->errs;
      r.failed = true;
    }
    ++r.lines_seen;
    if (r.lines_seen == r.rows + (batch ? 1 : 0)) {
      r.done_ns = tracer->NowNs();
      tracer->AddComplete("serve", kind, r.sent_ns, r.done_ns - r.sent_ns);
      step->outstanding.fetch_sub(r.rows);
      ++answered;
    }
  };

  auto sending = [&] {
    return next < res->requests.size() && !step->aborted.load();
  };
  while (!broken && (answered < next || sending())) {
    int64_t now = tracer->NowNs();
    if (now > drain_end) break;
    while (sending() && res->requests[next].due_ns <= now) {
      Request& r = res->requests[next];
      if (batch) {
        out += "batch " + cfg.model + " " + std::to_string(r.rows) + "\n";
        for (int k = 0; k < r.rows; ++k) {
          out += (*cfg.rows)[(r.first_row + static_cast<size_t>(k)) % n_rows];
          out += '\n';
        }
      } else {
        out += "predict " + cfg.model + " ";
        out += (*cfg.rows)[r.first_row];
        out += '\n';
      }
      r.sent_ns = tracer->NowNs();
      ++next;
      if (step->outstanding.fetch_add(r.rows) + r.rows > step->abort_rows) {
        step->aborted.store(true);
      }
    }
    while (out_off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
      } else {
        if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          broken = true;
        }
        break;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }

    now = tracer->NowNs();
    int64_t wait_ns = drain_end - now;
    if (sending()) {
      wait_ns = std::min(wait_ns, res->requests[next].due_ns - now);
    }
    wait_ns = std::clamp<int64_t>(wait_ns, 0, 50'000'000);
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int pr = ::ppoll(&p, 1, &ts, nullptr);
    if (pr < 0 && errno != EINTR) break;
    if (pr > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
      for (;;) {
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got > 0) {
          in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got == 0 ||
            (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR)) {
          broken = true;
        }
        break;
      }
      size_t pos = 0;
      for (;;) {
        const size_t nl = in.find('\n', pos);
        if (nl == std::string::npos) break;
        if (answered < next) {
          on_line(in.substr(pos, nl - pos));
        } else {
          ++res->errs;  // a reply nobody asked for
        }
        pos = nl + 1;
      }
      in.erase(0, pos);
    }
  }
  ::close(fd);
  // Everything sent and not answered in full timed out (or lost its
  // connection); the rest was never sent.
  for (size_t i = answered; i < res->requests.size(); ++i) {
    if (i < next) {
      res->requests[i].failed = true;
    } else {
      res->requests[i].shed = true;
    }
  }
}

}  // namespace

LoadResult RunLoadStep(const LoadConfig& cfg, Tracer* tracer) {
  const int conns = kConnsPerKind;
  const double kind_rows_per_s = cfg.rows_per_s / 2.0;
  const double per_conn_rows_per_s = kind_rows_per_s / conns;
  // Connections get 50 ms to come up before the first request is due.
  const int64_t t0 = tracer->NowNs() + 50'000'000;

  StepState step;
  step.abort_rows = std::max<int64_t>(
      static_cast<int64_t>(cfg.rows_per_s * kAbortBacklogSeconds),
      4 * kBatchRows * conns);
  std::vector<ConnResult> results(static_cast<size_t>(2 * conns));
  std::vector<std::thread> threads;
  for (int kind = 0; kind < 2; ++kind) {
    const bool batch = kind == 1;
    const double req_per_s =
        per_conn_rows_per_s / (batch ? kBatchRows : 1);
    const double interval_ns = 1e9 / req_per_s;
    const int64_t count =
        static_cast<int64_t>(std::floor(cfg.seconds * req_per_s));
    for (int c = 0; c < conns; ++c) {
      const int slot = kind * conns + c;
      // Stagger the connections so their requests do not fall due
      // together.
      const int64_t first_due =
          t0 + static_cast<int64_t>(interval_ns * slot / (2.0 * conns));
      threads.emplace_back(RunConnection, std::cref(cfg), tracer, &step, batch,
                           slot,
                           first_due, interval_ns, count,
                           &results[static_cast<size_t>(slot)]);
    }
  }
  for (std::thread& t : threads) t.join();

  LoadResult out;
  const int64_t t_end = t0 + static_cast<int64_t>(cfg.seconds * 1e9);
  struct Event {
    int64_t t;
    int64_t rows;
  };
  std::vector<Event> events;
  // Latency of the requests due in the schedule's first and last
  // quarter, per kind: a backlog that keeps growing shows as the last
  // quarter waiting far longer than the first.
  const int64_t quarter = (t_end - t0) / 4;
  std::vector<double> first[2], last[2];
  int64_t first_due = INT64_MAX;
  int64_t last_done = INT64_MIN;
  for (int slot = 0; slot < 2 * conns; ++slot) {
    const ConnResult& cr = results[static_cast<size_t>(slot)];
    const bool batch = slot >= conns;
    out.wrong_labels += cr.wrong;
    out.err_replies += cr.errs;
    out.rows_answered += cr.rows_answered;
    out.rows_correct_vs_truth += cr.correct_vs_truth;
    if (cr.refused) out.refused += static_cast<int64_t>(cr.requests.size());
    for (const Request& r : cr.requests) {
      if (r.shed) {
        ++out.requests_shed;
        continue;
      }
      ++out.requests_attempted;
      if (r.failed) ++out.requests_failed;
      if (r.done_ns < 0) {
        if (!cr.refused) ++out.timeouts;
      } else {
        const double us = static_cast<double>(r.done_ns - r.due_ns) * 1e-3;
        (batch ? out.batch_us : out.predict_us).push_back(us);
        out.lag_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) *
                             1e-3);
        if (r.due_ns < t0 + quarter) first[batch].push_back(us);
        if (r.due_ns >= t_end - quarter) last[batch].push_back(us);
        first_due = std::min(first_due, r.due_ns);
        last_done = std::max(last_done, r.done_ns);
      }
      events.push_back({r.due_ns, r.rows});
      events.push_back({r.done_ns < 0 ? INT64_MAX : r.done_ns, -r.rows});
    }
  }
  if (last_done > first_due) {
    out.served_rows_per_s = static_cast<double>(out.rows_answered) /
                            (static_cast<double>(last_done - first_due) * 1e-9);
  }
  // Peak backlog (rows due but not yet answered), on a 10 ms grid.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  int64_t backlog = 0;
  size_t e = 0;
  for (int64_t t = t0; t <= t_end; t += 10'000'000) {
    while (e < events.size() && events[e].t <= t) backlog += events[e++].rows;
    out.backlog_max_rows = std::max(out.backlog_max_rows, backlog);
  }
  out.backlog_grew = step.aborted.load() || out.timeouts > 0;
  for (int kind = 0; kind < 2; ++kind) {
    if (first[kind].size() >= 5 && last[kind].size() >= 5 &&
        MedianOf(last[kind]) > 2.0 * MedianOf(first[kind]) + 1000.0) {
      out.backlog_grew = true;
    }
  }
  return out;
}

std::string AdminRequest(int port, const std::string& line) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string req = line + "\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string in;
  char buf[4096];
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (in.find('\n') == std::string::npos) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    in.append(buf, static_cast<size_t>(got));
  }
  ::close(fd);
  const size_t nl = in.find('\n');
  return nl == std::string::npos ? "" : in.substr(0, nl);
}

}  // namespace perfbench
