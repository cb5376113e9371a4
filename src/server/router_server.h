// TCP front end over a ClusterEngine: the same newline-delimited JSON
// protocol pis_server speaks for clients, so pis_client talks to a router
// exactly as it talks to a single server.
//
//   {"op":"health"}                    -> {"ok":true,"status":"serving",...}
//   {"op":"stats"}                     -> {"ok":true,"stats":{...cluster...},
//                                         "metrics":{..registry..}}
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

#include "server/cluster_engine.h"
#include "server/line_server.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// The router adds no options to the shell's: `metrics` is where the
/// per-op request metrics register — hand it the registry the
/// ClusterEngine's fabric metrics use to get one exposition.
struct RouterServerOptions : LineServerOptions {};

/// \brief Client-protocol server over a ClusterEngine: the shell's
/// listener, worker pool and protocol plus the router's ops.
class RouterServer : public LineServer {
 public:
  /// `cluster` must outlive the server.
  RouterServer(ClusterEngine* cluster, const RouterServerOptions& options = {});
  ~RouterServer() { StopServing(); }

 private:
  static Protocol MakeProtocol(RouterServer* self);
  JsonValue Query(const JsonValue& request);

  ClusterEngine* cluster_;
};

}  // namespace pis

#endif  // PIS_SERVER_ROUTER_SERVER_H_
