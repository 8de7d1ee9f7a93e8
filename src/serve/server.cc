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
/// Fields are converted in place: strtod/strtol stop at the comma, so no
/// field is copied unless it is quoted back in an error.
bool ParseRow(const Schema& schema, const char* text,
              std::vector<double>* numeric, std::vector<int32_t>* categorical,
              std::string* error) {
  const int32_t na = schema.num_attrs();
  numeric->assign(static_cast<size_t>(na), 0.0);
  categorical->assign(static_cast<size_t>(na), -1);
  const char* field = text;
  for (int32_t a = 0; a < na; ++a) {
    const char* comma = std::strchr(field, ',');
    const char* field_end =
        comma != nullptr ? comma : field + std::strlen(field);
    const bool last = a == na - 1;
    if (!last && comma == nullptr) {
      *error = "expected " + std::to_string(na) + " fields";
      return false;
    }
    if (field_end == field) {
      *error = "empty field " + std::to_string(a);
      return false;
    }
    char* end = nullptr;
    if (schema.is_numeric(a)) {
      (*numeric)[a] = std::strtod(field, &end);
    } else {
      (*categorical)[a] = static_cast<int32_t>(std::strtol(field, &end, 10));
    }
    if (end == field || end != field_end) {
      *error = "bad value '" + std::string(field, field_end) +
               "' for attribute " + schema.attr(a).name;
      return false;
    }
    if (last) {
      if (comma != nullptr) {
        *error = "expected " + std::to_string(na) + " fields";
        return false;
      }
      return true;
    }
    field = field_end + 1;
  }
  return na > 0;  // na == 0 is an unusable schema
}

std::string LabelName(const Schema& schema, ClassId c) {
  if (c == kInvalidClass) return "?";
  return c < schema.num_classes() ? schema.class_name(c)
                                  : "class" + std::to_string(c);
}

/// Appends the reply line for one scored row.
void AppendReply(const Schema& schema, const RowReply& reply, bool want_probs,
                 std::string* out) {
  if (!reply.ok) {
    *out += "err " + reply.error + "\n";
    return;
  }
  *out += "ok ";
  *out += LabelName(schema, reply.label);
  if (want_probs) {
    std::ostringstream os;
    for (const float p : reply.probs) os << ' ' << p;
    *out += os.str();
  }
  *out += '\n';
}

/// True when the line's verb (the text before the first space) is
/// `predict` or `predictp`.
bool IsPredictLine(const std::string& line) {
  const size_t verb_len = line.find(' ');  // npos: the whole line
  return line.compare(0, verb_len, "predict") == 0 ||
         line.compare(0, verb_len, "predictp") == 0;
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
    if (!bound_unix_) SetTcpNoDelay(fd);
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
  bool carried = false;  // `line` is a request taken while gathering
  std::vector<std::string> group;
  while (!stopping_.load(std::memory_order_acquire) &&
         (carried || reader.ReadLine(&line))) {
    carried = false;
    if (line.empty()) continue;
    if (!IsPredictLine(line)) {
      if (!HandleLine(fd, &reader, line)) break;
      continue;
    }
    // Pipelining: the predicts a client already sent behind this one are
    // scored as one submission and answered with one write.
    group.clear();
    group.push_back(std::move(line));
    while (reader.TakeBuffered(&line)) {
      if (line.empty()) continue;
      if (!IsPredictLine(line)) {
        carried = true;
        break;
      }
      group.push_back(std::move(line));
    }
    if (!HandlePredicts(fd, group)) break;
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

bool ServeDaemon::ParsePredict(const std::string& line, ScoreRow* row,
                               std::string* error) const {
  const size_t sp = line.find(' ');
  const size_t sp2 =
      sp == std::string::npos ? std::string::npos : line.find(' ', sp + 1);
  if (sp2 == std::string::npos) {
    *error = "usage: predict <model> <csv-row>";
    return false;
  }
  row->want_probs = line.compare(0, sp, "predictp") == 0;
  const std::string name = line.substr(sp + 1, sp2 - sp - 1);
  row->model = registry_.Get(name);
  if (row->model == nullptr) {
    *error = "unknown model '" + name + "'";
    return false;
  }
  return ParseRow(row->model->schema(), line.c_str() + sp2 + 1,
                  &row->numeric, &row->categorical, error);
}

bool ServeDaemon::HandlePredicts(int fd,
                                 const std::vector<std::string>& lines) {
  std::vector<ScoreRow> rows(lines.size());
  std::vector<std::string> errors(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!ParsePredict(lines[i], &rows[i], &errors[i])) {
      stats_.AddProtocolError();
    }
  }
  std::string out;
  const size_t scored = ScoreRows(std::move(rows), errors, &out);
  stats_.AddRequests(scored);
  return SendAll(fd, out);
}

size_t ServeDaemon::ScoreRows(std::vector<ScoreRow> rows,
                              const std::vector<std::string>& errors,
                              std::string* out) {
  // What rendering a reply needs, kept before the rows move into the
  // batcher: the model (for its class names) and the probs flag.
  std::vector<std::shared_ptr<const ServedModel>> models;
  std::vector<bool> want_probs;
  std::vector<ScoreRow> submit;
  submit.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!errors[i].empty()) continue;
    models.push_back(rows[i].model);
    want_probs.push_back(rows[i].want_probs);
    submit.push_back(std::move(rows[i]));
  }
  std::vector<std::future<RowReply>> futures =
      batcher_->SubmitAll(std::move(submit));
  size_t k = 0;
  for (const std::string& error : errors) {
    if (!error.empty()) {
      *out += "err " + error + "\n";
      continue;
    }
    AppendReply(models[k]->schema(), futures[k].get(), want_probs[k], out);
    ++k;
  }
  return futures.size();
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
  std::string out;
  if (model == nullptr) {
    // The client has likely pipelined n row lines behind the verb;
    // consume them so they are not misread as requests, and keep the
    // reply shape (n row replies + done) invariant.
    stats_.AddProtocolError();
    std::string discard;
    for (long i = 0; i < n; ++i) {
      if (!reader->ReadLine(&discard)) return false;
      out += "err unknown model '" + name + "'\n";
    }
    return SendAll(fd, out + "done 0\n");
  }

  // The connection's reader is shared so rows the client pipelined
  // behind the verb line are not stranded in its buffer.
  std::vector<ScoreRow> rows(static_cast<size_t>(n));
  std::vector<std::string> errors(static_cast<size_t>(n));
  std::string text;
  for (long i = 0; i < n; ++i) {
    if (!reader->ReadLine(&text)) {
      if (!reader->line_too_long()) {
        SendLine(fd, "err short batch: got " + std::to_string(i) + " of " +
                         std::to_string(n) + " rows");
      }
      return false;
    }
    ScoreRow& row = rows[static_cast<size_t>(i)];
    if (ParseRow(model->schema(), text.c_str(), &row.numeric,
                 &row.categorical, &errors[static_cast<size_t>(i)])) {
      row.model = model;
    }
  }
  stats_.AddRequests(static_cast<uint64_t>(n));
  const size_t scored = ScoreRows(std::move(rows), errors, &out);
  return SendAll(fd, out + "done " + std::to_string(scored) + "\n");
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
