#include "server/router_server.h"

#include <utility>

namespace pis {

RouterServer::RouterServer(ClusterEngine* cluster,
                           const RouterServerOptions& options)
    : LineServer(MakeProtocol(this), options), cluster_(cluster) {}

// Runs before cluster_ exists: the handlers only capture `self`, and the
// shell calls none of them before Start().
LineServer::Protocol RouterServer::MakeProtocol(RouterServer* self) {
  Protocol protocol;
  protocol.metric_prefix = "pis_router";
  protocol.ops["health"] = [self](const JsonValue&) {
    const ClusterEngine::ClusterStats stats = self->cluster_->Stats();
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    reply.Set("status", "serving");
    reply.Set("epoch", stats.epoch);
    reply.Set("live", stats.live);
    return reply;
  };
  protocol.ops["probe"] = [self](const JsonValue&) {
    self->cluster_->ProbeOnce();
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    return reply;
  };
  protocol.ops["query"] = [self](const JsonValue& r) { return self->Query(r); };
  protocol.ops["add"] = [self](const JsonValue& request) {
    Result<Graph> graph = ReadGraph(request, "add");
    if (!graph.ok()) return ErrorReply(graph.status());
    Result<int> gid = self->cluster_->AddGraph(graph.value());
    if (!gid.ok()) return ErrorReply(gid.status());
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    reply.Set("id", gid.value());
    return reply;
  };
  protocol.ops["remove"] = [self](const JsonValue& request) {
    Result<int> gid = ReadNonNegative(request, "id");
    if (!gid.ok()) {
      return ErrorReply("\"id\" must be a non-negative integer graph id");
    }
    Status removed = self->cluster_->RemoveGraph(gid.value());
    if (!removed.ok()) return ErrorReply(removed);
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    return reply;
  };
  protocol.stats = [self] { return self->cluster_->StatsJson(); };
  return protocol;
}

JsonValue RouterServer::Query(const JsonValue& request) {
  Result<Graph> query = ReadGraph(request, "query");
  if (!query.ok()) return ErrorReply(query.status());
  double sigma = cluster_->sigma();
  if (request.Has("sigma")) {
    const JsonValue* s = request.Find("sigma");
    if (!s->is_number()) return ErrorReply("sigma must be a number");
    if (s->AsNumber() < 0) return ErrorReply("sigma must be >= 0");
    sigma = s->AsNumber();
  }
  const bool tracing = Tracing(request);
  TraceContext ctx(TraceContext::NextId("rq"));
  TraceContext* trace = tracing ? &ctx : nullptr;
  Result<SearchResult> result = cluster_->Search(query.value(), sigma, trace);
  if (!result.ok()) return ErrorReply(result.status());
  if (tracing) {
    // One root span wraps the router-level pipeline so the span tree reads
    // as: query -> {shard_filter:* round trips, plan, shard_refine:*}.
    TraceSpan root;
    root.name = "query";
    root.start_ms = 0;
    root.dur_ms = ctx.ElapsedMs();
    root.children = ctx.TakeSpans();
    ctx.Record(std::move(root));
  }
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  FinishQuery(request, result.value(), trace, &reply);
  return reply;
}

}  // namespace pis
