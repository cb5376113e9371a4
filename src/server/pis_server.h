// TCP front end over an EngineHost: a newline-delimited JSON protocol
// served by the shared LineServer worker-pool shell (per-connection
// requests are processed in order; distinct connections run concurrently).
//
// Protocol: one JSON object per line, one reply line per request.
//
//   {"op":"health"}                          -> {"ok":true,"status":"serving",...}
//   {"op":"stats"}                           -> {"ok":true,"stats":{...},
//                                                "metrics":{..registry..}}
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
//   {"op":"shard_filter","graph":"<record>", -> {"ok":true,"fragments":[..],
//     "shards":[0,2],"sigma":S}                 "shards":[{"shard":0,"live":N,
//                                                "survivors":[ids],"histograms":
//                                                [[[d,count],..],..]},..],..}
//   {"op":"shard_refine","graph":"<record>", -> {"ok":true,"candidates":[ids],
//     "shard":s,"partition":[..],"classes":[..],  "answers":[ids],
//     "survivors":[ids],"sigma":S}                "partition_candidates":N,..}
//   {"op":"shard_add","gid":N,"shard":s,     -> {"ok":true,"epoch":E}
//     "graph":"<record>"}                       (idempotent re-apply included)
//   {"op":"shard_remove","id":N}             -> {"ok":true,"epoch":E,
//                                                "applied":bool} (idempotent)
//
// With a non-empty PisServerOptions::shards_owned, shard_filter/shard_refine
// reject shards outside the owned set — the replica serves a shard subset
// even though it loads the full index structure. shard_add carries an explicit (gid, shard) placement
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

#include <vector>

#include "server/engine_host.h"
#include "server/line_server.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

struct PisServerOptions : LineServerOptions {
  /// Shards this replica serves (empty = all). Only constrains the
  /// cluster-fabric ops; the classic single-server ops always see the whole
  /// host.
  std::vector<int> shards_owned;
};

/// \brief Newline-delimited JSON server over an EngineHost: the shell's
/// listener, worker pool and protocol plus this server's ops.
class PisServer : public LineServer {
 public:
  /// `host` must outlive the server.
  PisServer(EngineHost* host, const PisServerOptions& options = {});
  ~PisServer() { StopServing(); }

 private:
  static Protocol MakeProtocol(PisServer* self);
  JsonValue Query(const JsonValue& request);
  JsonValue Add(const JsonValue& request);
  JsonValue Remove(const JsonValue& request);
  JsonValue Compact(const JsonValue& request);

  EngineHost* host_;
  /// Sorted copy of options.shards_owned (empty = all shards).
  std::vector<int> shards_owned_;
};

}  // namespace pis

#endif  // PIS_SERVER_PIS_SERVER_H_
