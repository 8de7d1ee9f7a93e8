#ifndef CMP_COMMON_NET_H_
#define CMP_COMMON_NET_H_

#include <cstddef>
#include <string>

namespace cmp {

/// Shared POSIX socket helpers for the serving daemon (serve/server.cc),
/// the cmpserve front end, and the distributed-training coordinator.
/// All of them speak over blocking stream sockets and need the same
/// four things: ride out EINTR, survive partial reads/writes, never die
/// on SIGPIPE, and hand a listening socket back with its resolved port.

/// Writes the whole buffer, riding out EINTR and partial sends.
/// MSG_NOSIGNAL turns a peer hangup into an error return instead of a
/// process-killing SIGPIPE.
bool SendAll(int fd, const void* data, size_t size);
bool SendAll(int fd, const std::string& data);

/// SendAll of `line` plus a trailing newline.
bool SendLine(int fd, const std::string& line);

/// Reads exactly `size` bytes, riding out EINTR. False on EOF or error
/// before the buffer fills (the caller cannot tell how much arrived —
/// a short frame is a dead peer either way).
bool RecvAll(int fd, void* data, size_t size);

/// Longest line LineReader accepts, newline excluded. Fixed, so one
/// client cannot make a reader buffer without bound.
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

/// Buffered newline-framed reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF or error with no complete line left, and as soon as
  /// the pending line grows past kMaxLineBytes (then line_too_long()
  /// turns true and the reader must be abandoned). Strips one trailing
  /// '\r' so CRLF clients work.
  bool ReadLine(std::string* out);

  /// ReadLine without blocking: takes the next complete line already
  /// buffered, and returns false when there is none (or when it is too
  /// long, as ReadLine) without touching the socket. Lets a handler
  /// gather requests a client pipelined into one write.
  bool TakeBuffered(std::string* out);

  bool line_too_long() const { return line_too_long_; }

 private:
  int fd_;
  std::string buf_;
  size_t scanned_ = 0;  // bytes of buf_ already known to hold no '\n'
  bool line_too_long_ = false;
};

/// Sets TCP_NODELAY, so a reply written in one send leaves at once
/// instead of waiting out Nagle behind the peer's delayed ACK.
void SetTcpNoDelay(int fd);

/// Binds and listens on host:port (SO_REUSEADDR; port 0 binds an
/// ephemeral port). On success returns the fd and stores the resolved
/// port in *bound_port. On failure returns -1 with *error set.
int ListenTcp(const std::string& host, int port, int* bound_port,
              std::string* error);

/// Binds and listens on a UNIX-domain socket at `path`, unlinking any
/// stale socket first. Returns the fd, or -1 with *error set.
int ListenUnix(const std::string& path, std::string* error);

/// Writes "port\n" to `path` (truncating). Written after listen() so a
/// reader of the file can connect immediately — the race-free startup
/// handshake for scripts and e2e tests.
bool WritePortFile(const std::string& path, int port);

}  // namespace cmp

#endif  // CMP_COMMON_NET_H_
