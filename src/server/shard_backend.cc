#include "server/shard_backend.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "graph/io.h"
#include "util/timer.h"

namespace pis {

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
// ShardBackend RPC instrumentation

void ShardBackend::EnableMetrics(MetricsRegistry* registry) {
  auto hist = [&](const char* op) {
    return registry->GetHistogram(
        "pis_cluster_rpc_seconds",
        "Per-endpoint round-trip latency of shard-fabric calls.",
        Histogram::DefaultLatencyBounds(),
        {{"endpoint", name()}, {"op", op}});
  };
  rpc_metrics_.health = hist("health");
  rpc_metrics_.meta = hist("meta");
  rpc_metrics_.shard_query = hist("shard_query");
  rpc_metrics_.shard_verify = hist("shard_verify");
  rpc_metrics_.shard_add = hist("shard_add");
  rpc_metrics_.shard_remove = hist("shard_remove");
  rpc_metrics_.transport_errors = registry->GetCounter(
      "pis_cluster_rpc_transport_errors_total",
      "Transport-classified shard-fabric call failures (the ones that trip "
      "the breaker).",
      {{"endpoint", name()}});
}

void ShardBackend::RecordRpc(const char* op, double seconds,
                             bool transport_error) {
  Histogram* h = nullptr;
  if (std::strcmp(op, "health") == 0) {
    h = rpc_metrics_.health;
  } else if (std::strcmp(op, "meta") == 0) {
    h = rpc_metrics_.meta;
  } else if (std::strcmp(op, "shard_query") == 0) {
    h = rpc_metrics_.shard_query;
  } else if (std::strcmp(op, "shard_verify") == 0) {
    h = rpc_metrics_.shard_verify;
  } else if (std::strcmp(op, "shard_add") == 0) {
    h = rpc_metrics_.shard_add;
  } else if (std::strcmp(op, "shard_remove") == 0) {
    h = rpc_metrics_.shard_remove;
  }
  if (h != nullptr) h->Observe(seconds);
  if (transport_error && rpc_metrics_.transport_errors != nullptr) {
    rpc_metrics_.transport_errors->Inc();
  }
}

// ---------------------------------------------------------------------------
// LocalShardBackend

LocalShardBackend::LocalShardBackend(EngineHost* host,
                                     std::vector<int> shards_owned,
                                     std::string name)
    : host_(host), shards_owned_(std::move(shards_owned)),
      name_(std::move(name)) {
  std::sort(shards_owned_.begin(), shards_owned_.end());
  shards_owned_.erase(
      std::unique(shards_owned_.begin(), shards_owned_.end()),
      shards_owned_.end());
}

Result<uint64_t> LocalShardBackend::Health() {
  Timer timer;
  const uint64_t epoch = host_->Stats().epoch;
  RecordRpc("health", timer.Seconds(), false);
  return epoch;
}

Result<ShardMeta> LocalShardBackend::Meta() {
  Timer timer;
  std::shared_ptr<const EngineHost::Snapshot> snap = host_->snapshot();
  Result<ShardMeta> meta = CollectShardMeta(*snap, shards_owned_);
  RecordRpc("meta", timer.Seconds(), false);
  return meta;
}

Result<ShardQueryResult> LocalShardBackend::ShardQuery(
    const Graph& query, const std::vector<int>& shards, double sigma,
    bool trace) {
  Timer timer;
  std::shared_ptr<const EngineHost::Snapshot> snap = host_->snapshot();
  PIS_RETURN_NOT_OK(
      CheckShardsOwned(shards, shards_owned_, snap->index->num_shards()));
  Result<ShardQueryResult> result = RunShardQuery(
      *snap, shards, query, sigma, host_->options(), trace);
  RecordRpc("shard_query", timer.Seconds(), false);
  return result;
}

Result<std::vector<int>> LocalShardBackend::ShardVerify(
    const Graph& query, const std::vector<int>& ids, double sigma, bool trace,
    std::vector<TraceSpan>* spans_out) {
  Timer timer;
  std::shared_ptr<const EngineHost::Snapshot> snap = host_->snapshot();
  if (!shards_owned_.empty()) {
    for (int gid : ids) {
      const int s = gid >= 0 && gid < snap->index->db_size()
                        ? snap->index->shard_of(gid)
                        : -1;
      if (!std::binary_search(shards_owned_.begin(), shards_owned_.end(),
                              s)) {
        return Status::InvalidArgument(
            "graph " + std::to_string(gid) +
            " is not resident in a shard owned by this replica");
      }
    }
  }
  Result<std::vector<int>> answers = RunShardVerify(
      *snap, ids, query, sigma, host_->options(), trace, spans_out);
  RecordRpc("shard_verify", timer.Seconds(), false);
  return answers;
}

Result<uint64_t> LocalShardBackend::ShardAdd(int gid, int shard,
                                             const Graph& g) {
  if (!shards_owned_.empty() &&
      !std::binary_search(shards_owned_.begin(), shards_owned_.end(),
                          shard)) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " is not owned by this replica");
  }
  Timer timer;
  uint64_t epoch = 0;
  Status added = host_->AddGraphAt(gid, shard, g, &epoch);
  RecordRpc("shard_add", timer.Seconds(), false);
  PIS_RETURN_NOT_OK(added);
  return epoch;
}

Result<ShardBackend::RemoveOutcome> LocalShardBackend::ShardRemove(int gid) {
  Timer timer;
  uint64_t epoch = 0;
  Status removed = host_->RemoveGraph(gid, &epoch);
  RecordRpc("shard_remove", timer.Seconds(), false);
  if (removed.ok()) return RemoveOutcome{epoch, true};
  // Mirror pis_server's idempotent shard_remove: already-dead is success.
  std::shared_ptr<const EngineHost::Snapshot> snap = host_->snapshot();
  const bool already_dead = removed.code() == StatusCode::kNotFound &&
                            gid >= 0 && gid < snap->index->db_size() &&
                            !snap->index->IsLive(gid);
  if (!already_dead) return removed;
  return RemoveOutcome{snap->epoch, false};
}

// ---------------------------------------------------------------------------
// RemoteShardBackend

RemoteShardBackend::RemoteShardBackend(std::string host, int port,
                                       int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms),
      name_(host_ + ":" + std::to_string(port_)) {}

Result<JsonValue> RemoteShardBackend::RoundTrip(const JsonValue& request) {
  Timer timer;
  Result<JsonValue> reply = RoundTripInner(request);
  RecordRpc(request.GetStringOr("op", "raw").c_str(), timer.Seconds(),
            !reply.ok() && IsTransportError(reply.status()));
  return reply;
}

Result<JsonValue> RemoteShardBackend::RoundTripInner(
    const JsonValue& request) {
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
    conn_ = TcpSocket();
    return Status::IOError("malformed reply from " + name_ + ": " +
                           (reply.ok() ? "not an object"
                                       : reply.status().ToString()));
  }
  if (!reply.value().GetBoolOr("ok", false)) {
    // A typed application error from a healthy replica. The connection
    // stays pooled — the server keeps it open after an error reply.
    const StatusCode code =
        StatusCodeFromName(reply.value().GetStringOr("code", "Internal"));
    return Status(code == StatusCode::kOk ? StatusCode::kInternal : code,
                  reply.value().GetStringOr("error", "unknown error") +
                      " (from " + name_ + ")");
  }
  return reply;
}

Result<uint64_t> RemoteShardBackend::Health() {
  JsonValue request = JsonValue::Object();
  request.Set("op", "health");
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  return EpochFromJson(reply);
}

Result<ShardMeta> RemoteShardBackend::Meta() {
  JsonValue request = JsonValue::Object();
  request.Set("op", "meta");
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  return ShardMetaFromJson(reply);
}

Result<ShardQueryResult> RemoteShardBackend::ShardQuery(
    const Graph& query, const std::vector<int>& shards, double sigma,
    bool trace) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "shard_query");
  request.Set("graph", FormatGraph(query, 0));
  JsonValue shard_list = JsonValue::Array();
  for (int s : shards) shard_list.Push(s);
  request.Set("shards", std::move(shard_list));
  request.Set("sigma", sigma);
  if (trace) request.Set("trace", true);
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  return ShardQueryResultFromJson(reply);
}

Result<std::vector<int>> RemoteShardBackend::ShardVerify(
    const Graph& query, const std::vector<int>& ids, double sigma, bool trace,
    std::vector<TraceSpan>* spans_out) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "shard_verify");
  request.Set("graph", FormatGraph(query, 0));
  JsonValue id_list = JsonValue::Array();
  for (int gid : ids) id_list.Push(gid);
  request.Set("ids", std::move(id_list));
  request.Set("sigma", sigma);
  if (trace) request.Set("trace", true);
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  if (trace && spans_out != nullptr) {
    if (const JsonValue* spans = reply.Find("spans"); spans != nullptr) {
      PIS_ASSIGN_OR_RETURN(std::vector<TraceSpan> decoded,
                           TraceSpan::ListFromJson(*spans));
      spans_out->insert(spans_out->end(),
                        std::make_move_iterator(decoded.begin()),
                        std::make_move_iterator(decoded.end()));
    }
  }
  return ShardVerifyAnswersFromJson(reply);
}

Result<uint64_t> RemoteShardBackend::ShardAdd(int gid, int shard,
                                              const Graph& g) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "shard_add");
  request.Set("gid", gid);
  request.Set("shard", shard);
  request.Set("graph", FormatGraph(g, gid));
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  return EpochFromJson(reply);
}

Result<ShardBackend::RemoveOutcome> RemoteShardBackend::ShardRemove(int gid) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "shard_remove");
  request.Set("id", gid);
  PIS_ASSIGN_OR_RETURN(JsonValue reply, RoundTrip(request));
  PIS_ASSIGN_OR_RETURN(uint64_t epoch, EpochFromJson(reply));
  return RemoveOutcome{epoch, reply.GetBoolOr("applied", true)};
}

}  // namespace pis
