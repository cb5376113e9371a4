#include "server/router_server.h"

#include <cmath>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "util/timer.h"

namespace pis {

RouterServer::RouterServer(ClusterEngine* cluster,
                           const RouterServerOptions& options)
    : cluster_(cluster),
      metrics_registry_(options.metrics),
      slow_log_(options.slow_query_log),
      shell_(
          [this](const std::string& line, bool* shutdown) {
            return HandleLine(line, shutdown);
          },
          LineServerOptions{options.port, options.loopback_only,
                            options.num_workers, options.max_request_bytes}) {
  if (metrics_registry_ != nullptr) {
    // The whole op vocabulary registers up front ("other" absorbs unknown
    // and missing ops), so HandleRequest reads a const map and pokes
    // atomics — never the registry mutex.
    static constexpr const char* kOps[] = {"health", "stats",    "probe",
                                           "metrics", "query",   "add",
                                           "remove",  "shutdown", "other"};
    for (const char* op : kOps) {
      OpMetrics m;
      m.requests = metrics_registry_->GetCounter(
          "pis_router_requests_total", "Protocol requests handled, per op.",
          {{"op", op}});
      m.latency = metrics_registry_->GetHistogram(
          "pis_router_request_seconds",
          "Wall time spent handling one protocol request, per op.",
          Histogram::DefaultLatencyBounds(), {{"op", op}});
      op_metrics_.emplace(op, m);
    }
  }
}

JsonValue RouterServer::HandleLine(const std::string& line, bool* shutdown) {
  Result<JsonValue> request = JsonValue::Parse(line);
  if (!request.ok()) return ErrorReply(request.status());
  if (!request.value().is_object()) {
    return ErrorReply("request must be a JSON object");
  }
  return HandleRequest(request.value(), shutdown);
}

JsonValue RouterServer::HandleRequest(const JsonValue& request,
                                      bool* shutdown) {
  const std::string op = request.GetStringOr("op", "");
  Timer timer;
  JsonValue reply = Dispatch(request, op, shutdown);
  if (!op_metrics_.empty()) {
    auto it = op_metrics_.find(op);
    if (it == op_metrics_.end()) it = op_metrics_.find("other");
    it->second.requests->Inc();
    it->second.latency->Observe(timer.Seconds());
  }
  return reply;
}

JsonValue RouterServer::Dispatch(const JsonValue& request,
                                 const std::string& op, bool* shutdown) {
  JsonValue reply = JsonValue::Object();

  if (op == "health") {
    const ClusterEngine::ClusterStats stats = cluster_->Stats();
    reply.Set("ok", true);
    reply.Set("status", "serving");
    reply.Set("epoch", stats.epoch);
    reply.Set("live", stats.live);
    return reply;
  }

  if (op == "stats") {
    reply.Set("ok", true);
    reply.Set("stats", cluster_->StatsJson());
    if (metrics_registry_ != nullptr) {
      reply.Set("metrics", metrics_registry_->ToJsonValue());
    }
    return reply;
  }

  if (op == "metrics") {
    if (metrics_registry_ == nullptr) {
      return ErrorReply(
          Status::Unavailable("metrics are not enabled on this router"));
    }
    reply.Set("ok", true);
    reply.Set("content_type", "text/plain; version=0.0.4");
    reply.Set("text", metrics_registry_->RenderPrometheus());
    return reply;
  }

  if (op == "probe") {
    cluster_->ProbeOnce();
    reply.Set("ok", true);
    return reply;
  }

  if (op == "query") return HandleQuery(request);

  if (op == "add") {
    const JsonValue* graph_text = request.Find("graph");
    if (graph_text == nullptr || !graph_text->is_string()) {
      return ErrorReply("add needs a string \"graph\" field");
    }
    Result<Graph> graph = ParseGraph(graph_text->AsString());
    if (!graph.ok()) return ErrorReply(graph.status());
    Result<int> gid = cluster_->AddGraph(graph.value());
    if (!gid.ok()) return ErrorReply(gid.status());
    reply.Set("ok", true);
    reply.Set("id", gid.value());
    return reply;
  }

  if (op == "remove") {
    const JsonValue* id = request.Find("id");
    if (id == nullptr || !id->is_number() ||
        id->AsNumber() != std::floor(id->AsNumber()) || id->AsNumber() < 0 ||
        id->AsNumber() > 2147483647.0) {
      return ErrorReply("\"id\" must be a non-negative integer graph id");
    }
    Status removed = cluster_->RemoveGraph(static_cast<int>(id->AsNumber()));
    if (!removed.ok()) return ErrorReply(removed);
    reply.Set("ok", true);
    return reply;
  }

  if (op == "shutdown") {
    *shutdown = true;
    reply.Set("ok", true);
    reply.Set("status", "stopping");
    return reply;
  }

  return ErrorReply(op.empty() ? "request is missing \"op\""
                               : "unknown op \"" + op + "\"");
}

JsonValue RouterServer::HandleQuery(const JsonValue& request) {
  const JsonValue* graph_text = request.Find("graph");
  if (graph_text == nullptr || !graph_text->is_string()) {
    return ErrorReply("query needs a string \"graph\" field");
  }
  Result<Graph> query = ParseGraph(graph_text->AsString());
  if (!query.ok()) return ErrorReply(query.status());
  double sigma = -1;
  if (request.Has("sigma")) {
    const JsonValue* s = request.Find("sigma");
    if (!s->is_number()) return ErrorReply("sigma must be a number");
    if (s->AsNumber() < 0) return ErrorReply("sigma must be >= 0");
    sigma = s->AsNumber();
  }
  const bool trace_requested = request.GetBoolOr("trace", false);
  // The context also runs for untraced requests when a slow-query log is
  // configured: a breach must be able to dump the span tree it never knew
  // it would need.
  const bool tracing =
      trace_requested || (slow_log_ != nullptr && slow_log_->enabled());
  TraceContext ctx(TraceContext::NextId("rq"));
  TraceContext* trace = tracing ? &ctx : nullptr;
  Result<SearchResult> result =
      sigma >= 0 ? cluster_->Search(query.value(), sigma, trace)
                 : cluster_->Search(query.value(), cluster_->sigma(), trace);
  if (!result.ok()) return ErrorReply(result.status());
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  JsonValue answers = JsonValue::Array();
  for (int gid : result.value().answers) answers.Push(gid);
  reply.Set("answers", std::move(answers));
  reply.Set("candidates", result.value().stats.candidates_final);
  JsonValue stats = JsonValue::Object();
  stats.Set("fragments", result.value().stats.fragments_enumerated);
  stats.Set("range_queries", result.value().stats.range_queries);
  stats.Set("filter_ms", result.value().stats.filter_seconds * 1e3);
  stats.Set("verify_ms", result.value().stats.verify_seconds * 1e3);
  reply.Set("stats", std::move(stats));
  if (tracing) {
    // One root span wraps the router-level pipeline so the span tree reads
    // as: query -> {shard_filter:* round trips, plan, shard_refine:*}.
    TraceSpan root;
    root.name = "query";
    root.start_ms = 0;
    root.dur_ms = ctx.ElapsedMs();
    root.children = ctx.TakeSpans();
    ctx.Record(std::move(root));
    JsonValue trace_json = ctx.ToJsonValue();
    trace_json.Set("op", "query");
    trace_json.Set("answers", static_cast<int>(result.value().answers.size()));
    if (slow_log_ != nullptr &&
        slow_log_->ShouldLog(trace_json.GetNumberOr("total_ms", 0))) {
      slow_log_->Log(trace_json);
    }
    if (trace_requested) reply.Set("trace", std::move(trace_json));
  }
  return reply;
}

}  // namespace pis
