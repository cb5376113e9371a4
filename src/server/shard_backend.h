// One replica of the shard fabric, as seen by the router: the cluster ops
// of server/shard_ops.h plus a health probe, behind a uniform
// interface so the fan-out logic in ClusterEngine is oblivious to where a
// shard actually lives. Every op is one JSON request/reply exchange; the
// two backends differ only in how the exchange travels:
//
//   LocalShardBackend  — an EngineHost in this process, answered by the
//                        same ServeShardOp that pis_server runs (the
//                        cluster tests, and single-process deployments that
//                        want the router semantics without sockets).
//   RemoteShardBackend — a pis_server reached over the newline-delimited
//                        JSON protocol, with per-request deadlines and a
//                        lazily (re)connected pooled socket.
//
// Error taxonomy matters here: the router's failover and circuit breaker
// trip only on TRANSPORT errors (IOError, DeadlineExceeded, Unavailable —
// the replica is unreachable or wedged), while APPLICATION errors
// (InvalidArgument, NotFound, ...) travel back in a healthy replica's
// reply frame and are surfaced, not retried. RoundTrip reconstructs the
// typed application Status from the reply's "code" field, so both backends
// present the identical error surface.
#ifndef PIS_SERVER_SHARD_BACKEND_H_
#define PIS_SERVER_SHARD_BACKEND_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "server/engine_host.h"
#include "server/shard_ops.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// True for the failures that mean "this replica is unreachable or wedged"
/// — the ones failover and the circuit breaker should act on. Application
/// errors returned by a healthy replica are not transport errors.
bool IsTransportError(const Status& status);

/// \brief One replica endpoint of the shard fabric (router-side view).
///
/// Implementations must be safe to call from several router threads at
/// once; calls to ONE backend may be serialized internally (the remote
/// backend multiplexes a single pooled connection).
class ShardBackend {
 public:
  /// `name` is the stable display name for logs, errors and the endpoint
  /// metric label ("127.0.0.1:4871", "local#2").
  explicit ShardBackend(std::string name);
  virtual ~ShardBackend() = default;

  const std::string& name() const { return name_; }

  /// Sends one request object: an {"ok":false} reply becomes its typed
  /// application Status (via the "code" field), a transport failure its
  /// transport Status. Timed per op and counted on transport failure.
  Result<JsonValue> RoundTrip(const JsonValue& request);

  /// Liveness probe; returns the replica's current epoch.
  Result<uint64_t> Health();
  Result<ShardMeta> Meta();
  /// The `shard_filter` and `shard_refine` ops. With `request.trace`, the
  /// reply's `spans` carries the replica's stage spans (remote clock
  /// domain).
  Result<ShardFilterReply> ShardFilter(const ShardFilterRequest& request);
  Result<ShardRefineReply> ShardRefine(const ShardRefineRequest& request);
  /// Idempotent explicit-placement write; returns the publishing epoch
  /// (0 when the replica had already applied this placement).
  Result<uint64_t> ShardAdd(int gid, int shard, const Graph& g);

  struct RemoveOutcome {
    uint64_t epoch = 0;
    /// False when the gid was already dead on this replica (idempotent
    /// re-delivery during catch-up).
    bool applied = false;
  };
  Result<RemoveOutcome> ShardRemove(int gid);

  /// Hands this endpoint's RPC instrumentation — one latency-histogram
  /// child per op under `pis_cluster_rpc_seconds{endpoint,op}` plus a
  /// transport-error counter — to `registry` (MetricsRegistry::Adopt).
  /// Until then the backend records into a registry it owns.
  void EnableMetrics(MetricsRegistry* registry) {
    registry->Adopt(&own_metrics_);
  }

 protected:
  /// One request/reply exchange: the reply object as the replica sent it
  /// (including {"ok":false} replies), or a transport error.
  virtual Result<JsonValue> Exchange(const JsonValue& request) = 0;

 private:
  std::string name_;
  MetricsRegistry own_metrics_;
  /// Per-op latency children for the fixed op vocabulary, resolved once so
  /// the record path never touches the registry mutex.
  std::unordered_map<std::string, Histogram*> rpc_latency_;
  Counter* transport_errors_;
};

/// \brief An in-process EngineHost serving a shard subset.
class LocalShardBackend : public ShardBackend {
 public:
  /// `host` must outlive the backend. `shards_owned` empty = all shards.
  LocalShardBackend(EngineHost* host, std::vector<int> shards_owned,
                    std::string name);

 protected:
  Result<JsonValue> Exchange(const JsonValue& request) override;

 private:
  EngineHost* host_;
  std::vector<int> shards_owned_;  // sorted; empty = all
};

/// \brief A pis_server replica reached over TCP.
///
/// Holds one lazily-connected socket; every round trip is serialized under
/// a mutex (the line protocol is strictly request/reply, so one in-flight
/// frame per connection). Any transport failure drops the socket, so the
/// next call reconnects from scratch — reconnection policy (backoff,
/// breaker) lives in the router, not here.
class RemoteShardBackend : public ShardBackend {
 public:
  /// `timeout_ms > 0` bounds connect AND every round trip (a silent peer
  /// yields DeadlineExceeded); <= 0 blocks indefinitely.
  RemoteShardBackend(std::string host, int port, int timeout_ms);

 protected:
  Result<JsonValue> Exchange(const JsonValue& request) override
      PIS_EXCLUDES(mu_);

 private:
  std::string host_;
  int port_;
  int timeout_ms_;

  Mutex mu_;
  TcpSocket conn_ PIS_GUARDED_BY(mu_);
};

}  // namespace pis

#endif  // PIS_SERVER_SHARD_BACKEND_H_
