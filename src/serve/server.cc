#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/net.h"

namespace cmp {

namespace {

/// Parses one dense CSV row against `schema` into per-attribute slots.
bool ParseRow(const Schema& schema, const std::string& text,
              std::vector<double>* numeric, std::vector<int32_t>* categorical,
              std::string* error) {
  const int32_t na = schema.num_attrs();
  numeric->assign(static_cast<size_t>(na), 0.0);
  categorical->assign(static_cast<size_t>(na), -1);
  size_t pos = 0;
  for (int32_t a = 0; a < na; ++a) {
    const size_t comma = text.find(',', pos);
    const bool last = a == na - 1;
    if (!last && comma == std::string::npos) {
      *error = "expected " + std::to_string(na) + " fields";
      return false;
    }
    const std::string field = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (field.empty()) {
      *error = "empty field " + std::to_string(a);
      return false;
    }
    char* end = nullptr;
    if (schema.is_numeric(a)) {
      (*numeric)[a] = std::strtod(field.c_str(), &end);
    } else {
      (*categorical)[a] = static_cast<int32_t>(std::strtol(field.c_str(), &end, 10));
    }
    if (end == field.c_str() || *end != '\0') {
      *error = "bad value '" + field + "' for attribute " +
               schema.attr(a).name;
      return false;
    }
    if (last) {
      if (comma != std::string::npos) {
        *error = "expected " + std::to_string(na) + " fields";
        return false;
      }
      return true;
    }
    pos = comma + 1;
  }
  return na > 0;  // na == 0 is an unusable schema
}

std::string LabelName(const Schema& schema, ClassId c) {
  if (c == kInvalidClass) return "?";
  return c < schema.num_classes() ? schema.class_name(c)
                                  : "class" + std::to_string(c);
}

std::string ReplyLine(const Schema& schema, const RowReply& reply,
                      bool want_probs) {
  if (!reply.ok) return "err " + reply.error;
  std::ostringstream os;
  os << "ok " << LabelName(schema, reply.label);
  if (want_probs) {
    for (const float p : reply.probs) os << ' ' << p;
  }
  return os.str();
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.num_threads),
      registry_(&pool_),
      batcher_(std::make_unique<MicroBatcher>(&pool_, opts_.batch, &stats_)) {
  stats_.SetBatchCapacity(opts_.batch.max_rows);
}

ServeDaemon::~ServeDaemon() { Shutdown(); }

bool ServeDaemon::Start(std::string* error) {
  if (!opts_.unix_path.empty()) {
    listen_fd_ = ListenUnix(opts_.unix_path, error);
    if (listen_fd_ < 0) return false;
    bound_unix_ = true;
  } else {
    listen_fd_ = ListenTcp(opts_.host, opts_.port, &port_, error);
    if (listen_fd_ < 0) return false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ServeDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Shutdown
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    stats_.AddConnection();
    ReapFinishedConnections();
    // The new thread's exit path takes conn_mu_, so it cannot mark
    // itself finished before its entry is complete.
    std::lock_guard<std::mutex> lock(conn_mu_);
    const uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.fd = fd;
    conn.thread = std::thread([this, fd, id] { ServeConnection(fd, id); });
  }
}

void ServeDaemon::ReapFinishedConnections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const uint64_t id : finished_conns_) {
      const auto it = conns_.find(id);
      done.push_back(std::move(it->second.thread));
      conns_.erase(it);
    }
    finished_conns_.clear();
  }
  for (std::thread& t : done) t.join();
}

void ServeDaemon::ServeConnection(int fd, uint64_t id) {
  LineReader reader(fd);
  std::string line;
  while (!stopping_.load(std::memory_order_acquire) && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    if (!HandleLine(fd, &reader, line)) break;
  }
  if (reader.line_too_long()) {
    stats_.AddProtocolError();
    SendLine(fd, "err line too long");
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  // Shutdown takes the whole table before joining; then there is no
  // entry left to mark.
  const auto it = conns_.find(id);
  if (it != conns_.end()) {
    it->second.fd = -1;
    finished_conns_.push_back(id);
  }
}

bool ServeDaemon::HandleLine(int fd, LineReader* reader,
                             const std::string& line) {
  const size_t sp = line.find(' ');
  const std::string verb = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

  if (verb == "predict") return HandlePredict(fd, rest, /*want_probs=*/false);
  if (verb == "predictp") return HandlePredict(fd, rest, /*want_probs=*/true);
  if (verb == "batch") return HandleBatch(fd, reader, rest);
  if (verb == "stats") return SendLine(fd, "ok " + stats_.ToJson());
  if (verb == "swap") {
    const size_t sp2 = rest.find(' ');
    if (sp2 == std::string::npos) {
      stats_.AddProtocolError();
      return SendLine(fd, "err usage: swap <model> <path.cmpb>");
    }
    const std::string name = rest.substr(0, sp2);
    const std::string path = rest.substr(sp2 + 1);
    std::string error;
    const uint64_t version = registry_.PublishFromFile(name, path, &error);
    if (version == 0) return SendLine(fd, "err " + error);
    stats_.AddSwap();
    return SendLine(fd, "ok " + name + " v" + std::to_string(version));
  }
  if (verb == "quit") {
    SendLine(fd, "ok bye");
    RequestShutdown();
    return false;
  }
  stats_.AddProtocolError();
  return SendLine(fd, "err unknown verb '" + verb + "'");
}

bool ServeDaemon::HandlePredict(int fd, const std::string& rest,
                                bool want_probs) {
  const size_t sp = rest.find(' ');
  if (sp == std::string::npos) {
    stats_.AddProtocolError();
    return SendLine(fd, "err usage: predict <model> <csv-row>");
  }
  const std::string name = rest.substr(0, sp);
  const std::shared_ptr<const ServedModel> model = registry_.Get(name);
  if (model == nullptr) {
    stats_.AddProtocolError();
    return SendLine(fd, "err unknown model '" + name + "'");
  }
  std::vector<double> numeric;
  std::vector<int32_t> categorical;
  std::string error;
  if (!ParseRow(model->schema(), rest.substr(sp + 1), &numeric, &categorical,
                &error)) {
    stats_.AddProtocolError();
    return SendLine(fd, "err " + error);
  }
  stats_.AddRequests(1);
  const Schema& schema = model->schema();
  std::future<RowReply> fut = batcher_->Submit(
      std::move(model), std::move(numeric), std::move(categorical),
      want_probs);
  return SendLine(fd, ReplyLine(schema, fut.get(), want_probs));
}

bool ServeDaemon::HandleBatch(int fd, LineReader* reader,
                              const std::string& rest) {
  const size_t sp = rest.find(' ');
  const std::string name = rest.substr(0, sp);
  const long n = sp == std::string::npos
                     ? -1
                     : std::strtol(rest.c_str() + sp + 1, nullptr, 10);
  if (name.empty() || n < 0 || n > (1 << 20)) {
    stats_.AddProtocolError();
    return SendLine(fd, "err usage: batch <model> <num-rows>");
  }
  const std::shared_ptr<const ServedModel> model = registry_.Get(name);
  if (model == nullptr) {
    // The client has likely pipelined n row lines behind the verb;
    // consume them so they are not misread as requests, and keep the
    // reply shape (n row replies + done) invariant.
    stats_.AddProtocolError();
    std::string discard;
    for (long i = 0; i < n; ++i) {
      if (!reader->ReadLine(&discard)) return false;
      if (!SendLine(fd, "err unknown model '" + name + "'")) return false;
    }
    return SendLine(fd, "done 0");
  }
  const Schema& schema = model->schema();

  // Read and enqueue rows one by one — the batcher coalesces them (and
  // anything other connections submit meanwhile) into scoring batches
  // while we are still parsing later rows. The connection's reader is
  // shared so rows the client pipelined behind the verb line are not
  // stranded in its buffer.
  std::vector<std::future<RowReply>> futures;
  futures.reserve(static_cast<size_t>(n));
  std::vector<std::string> parse_errors(static_cast<size_t>(n));
  std::string row;
  for (long i = 0; i < n; ++i) {
    if (!reader->ReadLine(&row)) {
      if (!reader->line_too_long()) {
        SendLine(fd, "err short batch: got " + std::to_string(i) + " of " +
                         std::to_string(n) + " rows");
      }
      return false;
    }
    std::vector<double> numeric;
    std::vector<int32_t> categorical;
    std::string error;
    if (!ParseRow(schema, row, &numeric, &categorical, &error)) {
      parse_errors[static_cast<size_t>(i)] = error;
      futures.emplace_back();  // placeholder, never waited on
      continue;
    }
    futures.push_back(batcher_->Submit(model, std::move(numeric),
                                       std::move(categorical),
                                       /*want_probs=*/false));
  }
  stats_.AddRequests(static_cast<uint64_t>(n));

  long ok_rows = 0;
  for (long i = 0; i < n; ++i) {
    std::string reply;
    if (!parse_errors[static_cast<size_t>(i)].empty()) {
      reply = "err " + parse_errors[static_cast<size_t>(i)];
    } else {
      reply = ReplyLine(schema, futures[static_cast<size_t>(i)].get(),
                        /*want_probs=*/false);
      ++ok_rows;
    }
    if (!SendLine(fd, reply)) return false;
  }
  return SendLine(fd, "done " + std::to_string(ok_rows));
}

void ServeDaemon::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool ServeDaemon::WaitFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

void ServeDaemon::Wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  Shutdown();
}

void ServeDaemon::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  stopping_.store(true, std::memory_order_release);

  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // Unblock connection threads parked in recv, then join them.
  std::unordered_map<uint64_t, Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& [id, conn] : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
    finished_conns_.clear();
  }
  for (auto& [id, conn] : conns) conn.thread.join();

  batcher_->Stop();
  if (bound_unix_) ::unlink(opts_.unix_path.c_str());
}

}  // namespace cmp
