// The protocol shell shared by every newline-delimited JSON server in the
// repo (pis_server's shard/replica front end, pis_router's cluster front
// end): a TCP listener, a fixed accept-and-serve worker pool, per-frame
// size caps, the shutdown dance that severs live connections so workers
// parked in RecvLine unblock — and the protocol around the owner's ops:
// line parsing, per-op request metrics, the `stats`, `metrics` and
// `shutdown` ops, unknown/missing-op errors, and the query reply and trace
// finishing both servers share. The owner contributes only its op
// vocabulary, so the two binaries cannot drift in any of it.
#ifndef PIS_SERVER_LINE_SERVER_H_
#define PIS_SERVER_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>

#include "core/naive_search.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

/// Request-field readers shared by every op handler. Failures are
/// InvalidArgument naming the field; a handler that promises clients a
/// fixed error text replies with that text instead.
///
/// The member `key` of `object`, or a null value when absent (which every
/// strict reader rejects as "must be a number").
const JsonValue& Member(const JsonValue& object, const char* key);
/// Strict int32 decode: the protocol ships ids as JSON numbers, and a
/// truncated 3.9 or an out-of-int32 value must fail loudly, not be cast.
Result<int> AsStrictInt(const JsonValue& v, const char* what);
/// Member `key` as a strict int32 >= 0.
Result<int> ReadNonNegative(const JsonValue& object, const char* key);
/// The "graph" member parsed as one native-format record; when it is
/// missing or not a string the error reads `<who> needs a string "graph"
/// field`.
Result<Graph> ReadGraph(const JsonValue& request, const std::string& who);

struct LineServerOptions {
  /// 0 binds a kernel-assigned ephemeral port (read back via port()).
  int port = 0;
  bool loopback_only = true;
  /// Concurrent connections served; excess connections queue in the accept
  /// backlog.
  int num_workers = 4;
  /// Per-request frame cap (a graph record arrives as one line).
  size_t max_request_bytes = 16u << 20;
  /// Where the per-op request counters and latency histograms register;
  /// the `metrics` op renders it and the `stats` reply mirrors it as JSON.
  /// Null records into a registry the server owns. Must outlive the server.
  MetricsRegistry* metrics = nullptr;
  /// Optional slow-query log: any query whose wall time breaches its
  /// threshold has its span tree appended as one JSON line, and the log's
  /// line counters join `metrics`. Must outlive the server.
  SlowQueryLog* slow_query_log = nullptr;
};

/// \brief Listener + worker pool serving one JSON reply line per request
/// line.
///
/// ParallelFor is the pool — each worker accepts and serves one connection
/// at a time, so per-connection requests are processed in order while
/// distinct connections run concurrently. Op handlers must be thread-safe:
/// up to num_workers invocations run at once.
class LineServer {
 public:
  /// Serves one op of the owner's vocabulary: the reply for a request
  /// object whose "op" named it.
  using OpHandler = std::function<JsonValue(const JsonValue& request)>;

  /// What the owner adds to the shell's protocol.
  struct Protocol {
    /// Metric family prefix: `<prefix>_requests_total{op}`,
    /// `<prefix>_request_seconds{op}` and `<prefix>_connections_total`.
    std::string metric_prefix;
    /// The owner's ops by name. The shell adds `stats`, `metrics` and
    /// `shutdown`, and counts every other line — unknown or missing op,
    /// malformed JSON, a non-object — under op="other".
    std::map<std::string, OpHandler> ops;
    /// The "stats" payload of the `stats` reply.
    std::function<JsonValue()> stats;
  };

  LineServer(Protocol protocol, const LineServerOptions& options);
  ~LineServer() { StopServing(); }
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
  uint64_t connections_served() const { return connections_->value(); }
  /// Request lines answered: the sum of `<prefix>_requests_total` over
  /// every op, so the two can never disagree.
  uint64_t requests_served() const;

 protected:
  /// Shutdown() + Wait(). A derived server whose handlers read its own
  /// members calls this from its destructor: those members die before the
  /// base destructor could stop the workers.
  void StopServing() {
    Shutdown();
    Wait();
  }
  /// Whether a query must run a trace context: the request set "trace", or
  /// an armed slow-query log may need the span tree.
  bool Tracing(const JsonValue& request) const;
  /// Adds a query result's "answers", "candidates" and "stats" to `reply`.
  /// With a non-null `trace` (whose spans the owner recorded) it also
  /// finishes the trace: the slow-query log gets the document on a breach,
  /// and the reply carries it as "trace" when the request asked for it.
  void FinishQuery(const JsonValue& request, const SearchResult& result,
                   TraceContext* trace, JsonValue* reply) const;

 private:
  /// One op's dispatch target (null for the shell-handled `shutdown` and
  /// the `other` fallback) and request instruments.
  struct Op {
    OpHandler handler;
    Counter* requests;
    Histogram* latency;
  };

  /// Registers the per-op families for the whole vocabulary at
  /// construction, so the request path only reads a const map.
  void RegisterOps(std::map<std::string, OpHandler> handlers);
  /// Returns the reply for one request line; sets `*shutdown` when the
  /// request asked the server to stop (the reply is still sent first).
  JsonValue HandleLine(const std::string& line, bool* shutdown);
  void WorkerLoop() PIS_EXCLUDES(live_mu_);
  void ServeConnection(TcpSocket conn) PIS_EXCLUDES(live_mu_);

  LineServerOptions options_;
  RegistryRef registry_;
  std::string prefix_;
  std::function<JsonValue()> stats_;
  /// op -> handler and instruments; read-only after construction.
  std::map<std::string, Op> ops_;
  const Op* other_;
  Counter* connections_;
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
  /// Raw fds of live connections, severed on Shutdown so workers blocked in
  /// RecvLine unblock.
  Mutex live_mu_;
  std::unordered_set<int> live_fds_ PIS_GUARDED_BY(live_mu_);
};

/// SIGINT/SIGTERM shutdown for a server binary, through a sigwait thread
/// instead of an async handler: the graceful path (Shutdown() plus whatever
/// the binary persists afterwards) is nowhere near async-signal-safe.
/// BlockShutdownSignals() must run before the process starts any thread,
/// so that every thread inherits the mask.
void BlockShutdownSignals();
/// Blocks until `server` stops — by the protocol's `shutdown` op, or by
/// SIGINT/SIGTERM, which a sigwait thread turns into server->Shutdown() —
/// and then prints "received <signal>, shutting down gracefully" for a
/// signal. Returns the signal, or 0 for a protocol shutdown.
int WaitForShutdown(LineServer* server);

}  // namespace pis

#endif  // PIS_SERVER_LINE_SERVER_H_
