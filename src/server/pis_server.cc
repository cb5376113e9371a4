#include "server/pis_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "server/shard_ops.h"

namespace pis {

PisServer::PisServer(EngineHost* host, const PisServerOptions& options)
    : LineServer(MakeProtocol(this), options),
      host_(host),
      shards_owned_(options.shards_owned) {
  std::sort(shards_owned_.begin(), shards_owned_.end());
  shards_owned_.erase(
      std::unique(shards_owned_.begin(), shards_owned_.end()),
      shards_owned_.end());
}

// Runs before the PisServer members exist: the handlers only capture
// `self`, and the shell calls none of them before Start().
LineServer::Protocol PisServer::MakeProtocol(PisServer* self) {
  Protocol protocol;
  protocol.metric_prefix = "pis_server";
  for (const char* op : {"health", "meta", "shard_filter", "shard_refine",
                         "shard_add", "shard_remove"}) {
    protocol.ops[op] = [self](const JsonValue& request) {
      return ServeShardOp(self->host_, self->shards_owned_, request);
    };
  }
  protocol.ops["query"] = [self](const JsonValue& r) { return self->Query(r); };
  protocol.ops["add"] = [self](const JsonValue& r) { return self->Add(r); };
  protocol.ops["remove"] = [self](const JsonValue& r) {
    return self->Remove(r);
  };
  protocol.ops["compact"] = [self](const JsonValue& r) {
    return self->Compact(r);
  };
  protocol.stats = [self] { return self->host_->Stats().ToJsonValue(); };
  return protocol;
}

JsonValue PisServer::Add(const JsonValue& request) {
  Result<Graph> graph = ReadGraph(request, "add");
  if (!graph.ok()) return ErrorReply(graph.status());
  // The out-param epoch is the one THIS mutation published; reading
  // snapshot()->epoch here could pick up a concurrent later mutation.
  uint64_t epoch = 0;
  Result<int> gid = host_->AddGraph(graph.value(), &epoch);
  if (!gid.ok()) return ErrorReply(gid.status());
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  reply.Set("id", gid.value());
  reply.Set("epoch", epoch);
  return reply;
}

JsonValue PisServer::Remove(const JsonValue& request) {
  Result<int> gid = ReadNonNegative(request, "id");
  if (!gid.ok()) {
    return ErrorReply("\"id\" must be a non-negative integer graph id");
  }
  uint64_t epoch = 0;
  Status removed = host_->RemoveGraph(gid.value(), &epoch);
  if (!removed.ok()) return ErrorReply(removed);
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  reply.Set("epoch", epoch);
  return reply;
}

JsonValue PisServer::Compact(const JsonValue& request) {
  const double min_dead_ratio = request.GetNumberOr("min_dead_ratio", 0.0);
  if (min_dead_ratio < 0 || min_dead_ratio > 1) {
    return ErrorReply("min_dead_ratio must be in [0, 1]");
  }
  uint64_t epoch = 0;
  Result<int> compacted = host_->Compact(min_dead_ratio, &epoch);
  if (!compacted.ok()) return ErrorReply(compacted.status());
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  reply.Set("compacted", compacted.value());
  reply.Set("epoch", epoch);
  return reply;
}

JsonValue PisServer::Query(const JsonValue& request) {
  Result<Graph> query = ReadGraph(request, "query");
  if (!query.ok()) return ErrorReply(query.status());
  const bool tracing = Tracing(request);
  TraceContext ctx(TraceContext::NextId("q"));
  std::optional<double> sigma;
  if (const JsonValue* value = request.Find("sigma")) {
    // A wrong-typed sigma must fail loudly, not silently fall back to
    // the server default (the client asked for a specific threshold).
    if (!value->is_number()) return ErrorReply("sigma must be a number");
    sigma = value->AsNumber();
  }
  const double search_start_ms = ctx.ElapsedMs();
  uint64_t epoch = 0;
  Result<SearchResult> result = host_->Search(query.value(), sigma, &epoch);
  if (!result.ok()) return ErrorReply(result.status());
  const QueryStats& qs = result.value().stats;
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  reply.Set("epoch", epoch);
  if (tracing) {
    // The span layout is reconstructed from the engine's stage timers:
    // the filter subtree starts where the search call started, verify
    // follows it back to back.
    const double filter_ms = qs.filter_seconds * 1e3;
    ctx.Record(BuildFilterSpan(qs, search_start_ms, filter_ms));
    TraceSpan verify;
    verify.name = "verify";
    verify.start_ms = search_start_ms + filter_ms;
    verify.dur_ms = qs.verify_seconds * 1e3;
    ctx.Record(std::move(verify));
  }
  FinishQuery(request, result.value(), tracing ? &ctx : nullptr, &reply);
  return reply;
}

}  // namespace pis
