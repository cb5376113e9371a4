#include "server/shard_backend.h"

#include <algorithm>
#include <utility>

#include "graph/io.h"
#include "util/timer.h"

namespace pis {

namespace {

JsonValue OpRequest(const char* op) {
  JsonValue request = JsonValue::Object();
  request.Set("op", op);
  return request;
}

}  // namespace

bool IsTransportError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// ShardBackend: the typed ops over one request/reply exchange

ShardBackend::ShardBackend(std::string name)
    : name_(std::move(name)),
      transport_errors_(own_metrics_.GetCounter(
          "pis_cluster_rpc_transport_errors_total",
          "Transport-classified shard-fabric call failures (the ones that "
          "trip the breaker).",
          {{"endpoint", name_}})) {
  for (const char* op : {"health", "meta", "shard_filter", "shard_refine",
                         "shard_add", "shard_remove"}) {
    rpc_latency_[op] = own_metrics_.GetHistogram(
        "pis_cluster_rpc_seconds",
        "Per-endpoint round-trip latency of shard-fabric calls.",
        Histogram::DefaultLatencyBounds(), {{"endpoint", name_}, {"op", op}});
  }
}

Result<JsonValue> ShardBackend::RoundTrip(const JsonValue& request) {
  Timer timer;
  Result<JsonValue> reply = Exchange(request);
  auto latency = rpc_latency_.find(request.GetStringOr("op", ""));
  if (latency != rpc_latency_.end()) latency->second->Observe(timer.Seconds());
  if (!reply.ok()) {
    if (IsTransportError(reply.status())) transport_errors_->Inc();
    return reply;
  }
  if (reply.value().GetBoolOr("ok", false)) return reply;
  // A typed application error from a healthy replica.
  const StatusCode code =
      StatusCodeFromName(reply.value().GetStringOr("code", "Internal"));
  return Status(code == StatusCode::kOk ? StatusCode::kInternal : code,
                reply.value().GetStringOr("error", "unknown error") +
                    " (from " + name() + ")");
}

Result<uint64_t> ShardBackend::Health() {
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(OpRequest("health")));
  return EpochFromJson(reply);
}

Result<ShardMeta> ShardBackend::Meta() {
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(OpRequest("meta")));
  return ShardMetaFromJson(reply);
}

Result<ShardFilterReply> ShardBackend::ShardFilter(
    const ShardFilterRequest& request) {
  PIS_ASSIGN_OR_RETURN(JsonValue reply,
                       RoundTrip(ShardFilterRequestToJson(request)));
  return ShardFilterReplyFromJson(reply);
}

Result<ShardRefineReply> ShardBackend::ShardRefine(
    const ShardRefineRequest& request) {
  PIS_ASSIGN_OR_RETURN(JsonValue reply,
                       RoundTrip(ShardRefineRequestToJson(request)));
  return ShardRefineReplyFromJson(reply);
}

Result<uint64_t> ShardBackend::ShardAdd(int gid, int shard, const Graph& g) {
  JsonValue request = OpRequest("shard_add");
  request.Set("gid", gid);
  request.Set("shard", shard);
  request.Set("graph", FormatGraph(g, gid));
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  return EpochFromJson(reply);
}

Result<ShardBackend::RemoveOutcome> ShardBackend::ShardRemove(int gid) {
  JsonValue request = OpRequest("shard_remove");
  request.Set("id", gid);
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  PIS_ASSIGN_OR_RETURN(uint64_t epoch, EpochFromJson(reply));
  return RemoveOutcome{epoch, reply.GetBoolOr("applied", true)};
}

// ---------------------------------------------------------------------------
// LocalShardBackend

LocalShardBackend::LocalShardBackend(EngineHost* host,
                                     std::vector<int> shards_owned,
                                     std::string name)
    : ShardBackend(std::move(name)),
      host_(host),
      shards_owned_(std::move(shards_owned)) {
  std::sort(shards_owned_.begin(), shards_owned_.end());
  shards_owned_.erase(
      std::unique(shards_owned_.begin(), shards_owned_.end()),
      shards_owned_.end());
}

Result<JsonValue> LocalShardBackend::Exchange(const JsonValue& request) {
  return ServeShardOp(host_, shards_owned_, request);
}

// ---------------------------------------------------------------------------
// RemoteShardBackend

RemoteShardBackend::RemoteShardBackend(std::string host, int port,
                                       int timeout_ms)
    : ShardBackend(host + ":" + std::to_string(port)),
      host_(std::move(host)),
      port_(port),
      timeout_ms_(timeout_ms) {}

Result<JsonValue> RemoteShardBackend::Exchange(const JsonValue& request) {
  MutexLock lock(&mu_);
  if (!conn_.valid()) {
    Result<TcpSocket> conn = TcpSocket::Connect(host_, port_, timeout_ms_);
    if (!conn.ok()) return conn.status();
    conn_ = conn.MoveValue();
  }
  Status sent = conn_.SendLine(request.Serialize());
  if (!sent.ok()) {
    conn_ = TcpSocket();  // poisoned stream: force a fresh connect next call
    return sent;
  }
  Result<std::string> line = conn_.RecvLine();
  if (!line.ok()) {
    conn_ = TcpSocket();
    return line.status();
  }
  Result<JsonValue> reply = JsonValue::Parse(line.value());
  if (!reply.ok() || !reply.value().is_object()) {
    // The server never emits an unparsable frame, so the stream position
    // is untrustworthy — drop it. Report as transport, not application.
    // (An {"ok":false} reply keeps the connection pooled: the server keeps
    // it open after an error reply.)
    conn_ = TcpSocket();
    return Status::IOError("malformed reply from " + name() + ": " +
                           (reply.ok() ? "not an object"
                                       : reply.status().ToString()));
  }
  return reply;
}

}  // namespace pis
