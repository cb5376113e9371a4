// The transport shell shared by every newline-delimited JSON server in the
// repo (pis_server's shard/replica front end, pis_router's cluster front
// end): a TCP listener, a fixed accept-and-serve worker pool, per-frame
// size caps, and the shutdown dance that severs live connections so workers
// parked in RecvLine unblock. Protocol semantics stay with the owner — the
// shell only moves request lines in and reply lines out through a handler
// callback, so the two binaries cannot drift in their connection lifecycle
// behavior (the part that is painful to get right twice).
#ifndef PIS_SERVER_LINE_SERVER_H_
#define PIS_SERVER_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>

#include "util/json.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// The protocol's failure reply: {"ok":false,"code":"<StatusCode>",
/// "error":"..."}. The code travels separately from the rendered message so
/// a remote caller can reconstruct a typed Status — distinguishing e.g. a
/// NotFound it can fail over from an InvalidArgument it must surface.
JsonValue ErrorReply(const Status& status);
/// An InvalidArgument failure reply.
JsonValue ErrorReply(const std::string& message);

struct LineServerOptions {
  /// 0 binds a kernel-assigned ephemeral port (read back via port()).
  int port = 0;
  bool loopback_only = true;
  /// Concurrent connections served; excess connections queue in the accept
  /// backlog.
  int num_workers = 4;
  /// Per-request frame cap (a graph record arrives as one line).
  size_t max_request_bytes = 16u << 20;
};

/// \brief Listener + worker pool serving one JSON reply line per request
/// line.
///
/// ParallelFor is the pool — each worker accepts and serves one connection
/// at a time, so per-connection requests are processed in order while
/// distinct connections run concurrently. The handler must be thread-safe:
/// up to num_workers invocations run at once.
class LineServer {
 public:
  /// Returns the reply for one request line; sets `*shutdown` to stop the
  /// server after the reply is sent. Never sees blank lines (keep-alives)
  /// or oversized frames — the shell handles those.
  using Handler = std::function<JsonValue(const std::string& line,
                                          bool* shutdown)>;

  LineServer(Handler handler, const LineServerOptions& options);
  ~LineServer();
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds the listener and spawns the worker pool. Call once.
  Status Start() PIS_EXCLUDES(serve_mu_);
  /// The bound port (valid after Start).
  int port() const { return listener_.port(); }

  /// Blocks until the server stopped (a shutdown request or Shutdown()).
  void Wait() PIS_EXCLUDES(serve_mu_);
  /// Stops accepting, severs live connections, and wakes Wait(). Idempotent
  /// and callable from any thread (including a protocol handler's).
  void Shutdown() PIS_EXCLUDES(live_mu_);

  /// True from a successful Start() until the worker pool has exited.
  bool running() const { return serving_.load(std::memory_order_acquire); }
  uint64_t connections_served() const { return connections_served_; }
  uint64_t requests_served() const { return requests_served_; }

 private:
  void WorkerLoop() PIS_EXCLUDES(live_mu_);
  void ServeConnection(TcpSocket conn) PIS_EXCLUDES(live_mu_);

  Handler handler_;
  LineServerOptions options_;
  TcpListener listener_;
  /// serve_mu_ guards the pool thread object: Start() writes it while a
  /// concurrent Wait() (e.g. a destructor racing a protocol-triggered
  /// shutdown's waiter) joins it — unguarded, that pair is a data race on
  /// the std::thread itself. running() deliberately reads the serving_ flag
  /// instead of the thread so it never blocks behind a join in progress.
  mutable Mutex serve_mu_;
  std::thread serve_thread_ PIS_GUARDED_BY(serve_mu_);
  std::atomic<bool> serving_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_served_{0};
  std::atomic<uint64_t> requests_served_{0};
  /// Raw fds of live connections, severed on Shutdown so workers blocked in
  /// RecvLine unblock.
  Mutex live_mu_;
  std::unordered_set<int> live_fds_ PIS_GUARDED_BY(live_mu_);
};

}  // namespace pis

#endif  // PIS_SERVER_LINE_SERVER_H_
