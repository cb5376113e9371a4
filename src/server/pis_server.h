// TCP front end over an EngineHost: a newline-delimited JSON protocol
// served by the shared LineServer worker-pool shell (per-connection
// requests are processed in order; distinct connections run concurrently).
//
// Protocol: one JSON object per line, one reply line per request.
//
//   {"op":"health"}                          -> {"ok":true,"status":"serving",...}
//   {"op":"stats"}                           -> {"ok":true,"stats":{...}}
//   {"op":"query","graph":"<record>",        -> {"ok":true,"answers":[ids],
//     "sigma":2.0?}                              "candidates":N,"epoch":E,...}
//   {"op":"add","graph":"<record>"}          -> {"ok":true,"id":gid,"epoch":E}
//   {"op":"remove","id":17}                  -> {"ok":true,"epoch":E}
//   {"op":"compact","min_dead_ratio":0.3?}   -> {"ok":true,"compacted":k,"epoch":E}
//   {"op":"metrics"}                         -> {"ok":true,"content_type":..,
//                                                "text":"<prometheus exposition>"}
//   {"op":"shutdown"}                        -> {"ok":true} (then the server stops)
//
// `query` additionally accepts "trace":true, which adds a "trace" object to
// the reply: {"trace_id":..,"op":"query","total_ms":F,"spans":[span*]} with
// the span schema of obs/trace.h (filter stage children + verify). The same
// document is what a configured slow-query log records when total_ms
// breaches the threshold — with or without "trace" in the request.
//
// Cluster-fabric ops (pis_router is the intended caller; the payload
// shapes live in server/shard_ops.h):
//
//   {"op":"meta"}                            -> {"ok":true,"db_slots":..,
//                                                "routing":[..],"tombstones":[..],..}
//   {"op":"shard_query","graph":"<record>",  -> {"ok":true,"fragments":[..],
//     "shards":[0,2],"sigma":S?}                 "dists":[[[gid,d],..],..],..}
//   {"op":"shard_verify","graph":"<record>", -> {"ok":true,"answers":[ids]}
//     "ids":[..],"sigma":S}
//   {"op":"shard_add","gid":N,"shard":s,     -> {"ok":true,"epoch":E}
//     "graph":"<record>"}                       (idempotent re-apply included)
//   {"op":"shard_remove","id":N}             -> {"ok":true,"epoch":E,
//                                                "applied":bool} (idempotent)
//
// With a non-empty PisServerOptions::shards_owned, shard_query/shard_verify
// reject shards (or candidate gids resident in shards) outside the owned
// set — the replica serves a shard subset even though it loads the full
// index structure. shard_add carries an explicit (gid, shard) placement
// preassigned by the router and is idempotent, which is what makes the
// router's catch-up replay after a lost ack safe; shard_remove likewise
// treats an already-dead gid as success ("applied":false).
//
// "<record>" is one graph in the native text format (src/graph/io.h) with
// newlines JSON-escaped. Failures reply {"ok":false,"code":"<StatusCode>",
// "error":"..."} and keep the connection open; malformed JSON gets the
// same treatment.
//
// Concurrency guarantees are inherited from EngineHost: every query runs
// against one immutable snapshot (reads never block on writes, including
// background compaction), and a mutation acknowledged with "ok" is visible
// to every later request on any connection.
#ifndef PIS_SERVER_PIS_SERVER_H_
#define PIS_SERVER_PIS_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/engine_host.h"
#include "server/line_server.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

struct PisServerOptions {
  /// 0 binds a kernel-assigned ephemeral port (read back via port()).
  int port = 0;
  bool loopback_only = true;
  /// Concurrent connections served; excess connections queue in the accept
  /// backlog.
  int num_workers = 4;
  /// Per-request frame cap (a graph record arrives as one line).
  size_t max_request_bytes = 16u << 20;
  /// Shards this replica serves (empty = all). Only constrains the
  /// cluster-fabric ops; the classic single-server ops always see the whole
  /// host.
  std::vector<int> shards_owned;
  /// When non-null: per-op request counters/latency histograms register
  /// here, the `metrics` op renders its Prometheus exposition, and the
  /// `stats` reply gains a "metrics" JSON section. Must outlive the server.
  /// (Wiring the HOST's engine metrics into the same registry is the
  /// caller's job — EngineHost::EnableMetrics.)
  MetricsRegistry* metrics = nullptr;
  /// When non-null, any query whose wall time breaches the log's threshold
  /// has its span tree appended as one JSON line. Must outlive the server.
  SlowQueryLog* slow_query_log = nullptr;
};

/// \brief Newline-delimited JSON server over an EngineHost.
class PisServer {
 public:
  /// `host` must outlive the server.
  PisServer(EngineHost* host, const PisServerOptions& options = {});

  /// Binds the listener and spawns the worker pool. Call once.
  Status Start() { return shell_.Start(); }
  /// The bound port (valid after Start).
  int port() const { return shell_.port(); }

  /// Blocks until the server stopped (a shutdown request or Shutdown()).
  void Wait() { shell_.Wait(); }
  /// Stops accepting, severs live connections, and wakes Wait(). Idempotent
  /// and callable from any thread (including a protocol handler's).
  void Shutdown() { shell_.Shutdown(); }

  /// True from a successful Start() until the worker pool has exited.
  bool running() const { return shell_.running(); }
  uint64_t connections_served() const { return shell_.connections_served(); }
  uint64_t requests_served() const { return shell_.requests_served(); }

 private:
  /// Per-op request instrumentation, registered once at construction for
  /// the fixed op vocabulary so the request path never takes the registry
  /// mutex.
  struct OpMetrics {
    Counter* requests = nullptr;
    Histogram* latency = nullptr;
  };

  /// Returns the reply; sets `*shutdown` when the request asked the server
  /// to stop (the reply is still sent first).
  JsonValue HandleLine(const std::string& line, bool* shutdown);
  /// Times and counts the request, then dispatches.
  JsonValue HandleRequest(const JsonValue& request, bool* shutdown);
  JsonValue Dispatch(const JsonValue& request, const std::string& op,
                     bool* shutdown);
  JsonValue HandleQuery(const JsonValue& request);
  JsonValue HandleShardQuery(const JsonValue& request);
  JsonValue HandleShardVerify(const JsonValue& request);
  JsonValue HandleShardAdd(const JsonValue& request);
  JsonValue HandleShardRemove(const JsonValue& request);

  EngineHost* host_;
  /// Sorted copy of options.shards_owned (empty = all shards).
  std::vector<int> shards_owned_;
  MetricsRegistry* metrics_registry_;
  SlowQueryLog* slow_log_;
  /// op -> cached children; read-only after construction.
  std::map<std::string, OpMetrics> op_metrics_;
  LineServer shell_;
};

}  // namespace pis

#endif  // PIS_SERVER_PIS_SERVER_H_
