#include "server/pis_server.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/io.h"
#include "server/shard_ops.h"
#include "util/timer.h"

namespace pis {

namespace {

/// Strict int32 or bust: truncating 3.9 would address a different graph
/// than requested, and casting 1e300 to int is undefined behavior.
bool StrictInt(const JsonValue* v, int* out) {
  if (v == nullptr || !v->is_number()) return false;
  const double raw = v->AsNumber();
  if (raw != std::floor(raw) || raw < -2147483648.0 || raw > 2147483647.0) {
    return false;
  }
  *out = static_cast<int>(raw);
  return true;
}

}  // namespace

PisServer::PisServer(EngineHost* host, const PisServerOptions& options)
    : host_(host),
      shards_owned_(options.shards_owned),
      metrics_registry_(options.metrics),
      slow_log_(options.slow_query_log),
      shell_(
          [this](const std::string& line, bool* shutdown) {
            return HandleLine(line, shutdown);
          },
          LineServerOptions{options.port, options.loopback_only,
                            options.num_workers, options.max_request_bytes}) {
  std::sort(shards_owned_.begin(), shards_owned_.end());
  shards_owned_.erase(
      std::unique(shards_owned_.begin(), shards_owned_.end()),
      shards_owned_.end());
  if (metrics_registry_ != nullptr) {
    // The whole op vocabulary registers up front ("other" absorbs unknown
    // and missing ops), so HandleRequest reads a const map and pokes
    // atomics — never the registry mutex.
    static constexpr const char* kOps[] = {
        "health",      "stats",     "meta",      "metrics",      "query",
        "add",         "remove",    "compact",   "shutdown",     "shard_filter",
        "shard_refine", "shard_add", "shard_remove", "other"};
    for (const char* op : kOps) {
      OpMetrics m;
      m.requests = metrics_registry_->GetCounter(
          "pis_server_requests_total", "Protocol requests handled, per op.",
          {{"op", op}});
      m.latency = metrics_registry_->GetHistogram(
          "pis_server_request_seconds",
          "Wall time spent handling one protocol request, per op.",
          Histogram::DefaultLatencyBounds(), {{"op", op}});
      op_metrics_.emplace(op, m);
    }
  }
}

JsonValue PisServer::HandleLine(const std::string& line, bool* shutdown) {
  Result<JsonValue> request = JsonValue::Parse(line);
  if (!request.ok()) return ErrorReply(request.status());
  if (!request.value().is_object()) {
    return ErrorReply("request must be a JSON object");
  }
  return HandleRequest(request.value(), shutdown);
}

JsonValue PisServer::HandleRequest(const JsonValue& request, bool* shutdown) {
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

JsonValue PisServer::Dispatch(const JsonValue& request, const std::string& op,
                              bool* shutdown) {
  JsonValue reply = JsonValue::Object();

  if (op == "health" || op == "meta" || op == "shard_filter" ||
      op == "shard_refine" || op == "shard_add" || op == "shard_remove") {
    return ServeShardOp(host_, shards_owned_, request);
  }

  if (op == "stats") {
    reply.Set("ok", true);
    reply.Set("stats", host_->Stats().ToJsonValue());
    if (metrics_registry_ != nullptr) {
      reply.Set("metrics", metrics_registry_->ToJsonValue());
    }
    return reply;
  }

  if (op == "metrics") {
    if (metrics_registry_ == nullptr) {
      return ErrorReply(
          Status::Unavailable("metrics are not enabled on this server"));
    }
    reply.Set("ok", true);
    reply.Set("content_type", "text/plain; version=0.0.4");
    reply.Set("text", metrics_registry_->RenderPrometheus());
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
    // The out-param epoch is the one THIS mutation published; reading
    // snapshot()->epoch here could pick up a concurrent later mutation.
    uint64_t epoch = 0;
    Result<int> gid = host_->AddGraph(graph.value(), &epoch);
    if (!gid.ok()) return ErrorReply(gid.status());
    reply.Set("ok", true);
    reply.Set("id", gid.value());
    reply.Set("epoch", epoch);
    return reply;
  }

  if (op == "remove") {
    int gid = 0;
    if (!StrictInt(request.Find("id"), &gid) || gid < 0) {
      return ErrorReply("\"id\" must be a non-negative integer graph id");
    }
    uint64_t epoch = 0;
    Status removed = host_->RemoveGraph(gid, &epoch);
    if (!removed.ok()) return ErrorReply(removed);
    reply.Set("ok", true);
    reply.Set("epoch", epoch);
    return reply;
  }

  if (op == "compact") {
    const double min_dead_ratio = request.GetNumberOr("min_dead_ratio", 0.0);
    if (min_dead_ratio < 0 || min_dead_ratio > 1) {
      return ErrorReply("min_dead_ratio must be in [0, 1]");
    }
    uint64_t epoch = 0;
    Result<int> compacted = host_->Compact(min_dead_ratio, &epoch);
    if (!compacted.ok()) return ErrorReply(compacted.status());
    reply.Set("ok", true);
    reply.Set("compacted", compacted.value());
    reply.Set("epoch", epoch);
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

JsonValue PisServer::HandleQuery(const JsonValue& request) {
  const JsonValue* graph_text = request.Find("graph");
  if (graph_text == nullptr || !graph_text->is_string()) {
    return ErrorReply("query needs a string \"graph\" field");
  }
  Result<Graph> query = ParseGraph(graph_text->AsString());
  if (!query.ok()) return ErrorReply(query.status());
  const bool trace_requested = request.GetBoolOr("trace", false);
  // The context also runs for untraced requests when a slow-query log is
  // configured: a breach must be able to dump the span tree it never knew
  // it would need.
  const bool tracing =
      trace_requested || (slow_log_ != nullptr && slow_log_->enabled());
  TraceContext ctx(TraceContext::NextId("q"));
  // Pin one snapshot: the engine (and any per-request sigma variant of
  // it) runs against exactly one published state.
  std::shared_ptr<const EngineHost::Snapshot> snap = host_->snapshot();
  const double search_start_ms = ctx.ElapsedMs();
  Result<SearchResult> result = Status::Internal("not run");
  if (request.Has("sigma")) {
    const JsonValue* sigma = request.Find("sigma");
    // A wrong-typed sigma must fail loudly, not silently fall back to
    // the server default (the client asked for a specific threshold).
    if (!sigma->is_number()) return ErrorReply("sigma must be a number");
    PisOptions per_request = host_->options();
    per_request.sigma = sigma->AsNumber();
    if (per_request.sigma < 0) return ErrorReply("sigma must be >= 0");
    PisEngine engine(snap->db.get(), snap->index.get(), per_request);
    result = engine.Search(query.value());
  } else {
    result = snap->engine.Search(query.value());
  }
  if (!result.ok()) return ErrorReply(result.status());
  const QueryStats& qs = result.value().stats;
  host_->AccountQuery(qs);
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  reply.Set("epoch", snap->epoch);
  JsonValue answers = JsonValue::Array();
  for (int gid : result.value().answers) answers.Push(gid);
  reply.Set("answers", std::move(answers));
  reply.Set("candidates", qs.candidates_final);
  JsonValue stats = JsonValue::Object();
  stats.Set("fragments", qs.fragments_enumerated);
  stats.Set("range_queries", qs.range_queries);
  stats.Set("filter_ms", qs.filter_seconds * 1e3);
  stats.Set("verify_ms", qs.verify_seconds * 1e3);
  reply.Set("stats", std::move(stats));
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
