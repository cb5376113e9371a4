// TCP front end over a ClusterEngine: the same newline-delimited JSON
// protocol pis_server speaks for clients, so pis_client talks to a router
// exactly as it talks to a single server.
//
//   {"op":"health"}                    -> {"ok":true,"status":"serving",...}
//   {"op":"stats"}                     -> {"ok":true,"stats":{...cluster...}}
//   {"op":"query","graph":"<record>",  -> {"ok":true,"answers":[ids],
//     "sigma":2.0?}                        "candidates":N,...}
//   {"op":"add","graph":"<record>"}    -> {"ok":true,"id":gid}
//   {"op":"remove","id":17}            -> {"ok":true}
//   {"op":"metrics"}                   -> {"ok":true,"content_type":..,
//                                         "text":"<prometheus exposition>"}
//   {"op":"probe"}                     -> {"ok":true} (one synchronous
//                                         health/catch-up pass; test hook)
//   {"op":"shutdown"}                  -> {"ok":true} (stops the router
//                                         only, never the shard servers)
//
// `query` additionally accepts "trace":true, which adds a "trace" object to
// the reply: {"trace_id":..,"op":"query","total_ms":F,"spans":[root]} where
// the single root span "query" contains the router-level pipeline — the
// per-shard-group "shard_filter:*" round trips (each carrying the replica's
// own child spans), the router's "plan", and the per-shard
// "shard_refine:*" round trips. The same document is what a
// configured slow-query log records when total_ms breaches the threshold.
#ifndef PIS_SERVER_ROUTER_SERVER_H_
#define PIS_SERVER_ROUTER_SERVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/cluster_engine.h"
#include "server/line_server.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

struct RouterServerOptions {
  int port = 0;  // 0 = ephemeral
  bool loopback_only = true;
  int num_workers = 4;
  size_t max_request_bytes = 16u << 20;
  /// When non-null: per-op request counters/latency histograms register
  /// here, the `metrics` op renders its Prometheus exposition, and the
  /// `stats` reply gains a "metrics" JSON section. Must outlive the server.
  /// (Wiring the ClusterEngine's fabric metrics into the same registry is
  /// the caller's job — ClusterEngineOptions::metrics.)
  MetricsRegistry* metrics = nullptr;
  /// When non-null, any query whose wall time breaches the log's threshold
  /// has its span tree appended as one JSON line. Must outlive the server.
  SlowQueryLog* slow_query_log = nullptr;
};

/// \brief Client-protocol server over a ClusterEngine.
class RouterServer {
 public:
  /// `cluster` must outlive the server.
  RouterServer(ClusterEngine* cluster, const RouterServerOptions& options = {});

  Status Start() { return shell_.Start(); }
  int port() const { return shell_.port(); }
  void Wait() { shell_.Wait(); }
  void Shutdown() { shell_.Shutdown(); }
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

  JsonValue HandleLine(const std::string& line, bool* shutdown);
  /// Times and counts the request, then dispatches.
  JsonValue HandleRequest(const JsonValue& request, bool* shutdown);
  JsonValue Dispatch(const JsonValue& request, const std::string& op,
                     bool* shutdown);
  JsonValue HandleQuery(const JsonValue& request);

  ClusterEngine* cluster_;
  MetricsRegistry* metrics_registry_;
  SlowQueryLog* slow_log_;
  /// op -> cached children; read-only after construction.
  std::map<std::string, OpMetrics> op_metrics_;
  LineServer shell_;
};

}  // namespace pis

#endif  // PIS_SERVER_ROUTER_SERVER_H_
