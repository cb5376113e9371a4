// One replica of the shard fabric, as seen by the router: the five
// cluster ops of server/shard_ops.h plus a health probe, behind a uniform
// interface so the fan-out/merge logic in ClusterEngine is oblivious to
// where a shard actually lives.
//
//   LocalShardBackend  — an EngineHost in this process (the cluster test
//                        harness, and single-process deployments that want
//                        the router semantics without sockets).
//   RemoteShardBackend — a pis_server reached over the newline-delimited
//                        JSON protocol, with per-request deadlines and a
//                        lazily (re)connected pooled socket.
//
// Error taxonomy matters here: the router's failover and circuit breaker
// trip only on TRANSPORT errors (IOError, DeadlineExceeded, Unavailable —
// the replica is unreachable or wedged), while APPLICATION errors
// (InvalidArgument, NotFound, ...) travel back from a healthy replica's
// reply frame and are surfaced, not retried. RemoteShardBackend
// reconstructs the typed application Status from the reply's "code" field,
// so both backends present the identical error surface.
#ifndef PIS_SERVER_SHARD_BACKEND_H_
#define PIS_SERVER_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  virtual ~ShardBackend() = default;

  /// Stable display name for logs and errors ("127.0.0.1:4871", "local#2").
  virtual const std::string& name() const = 0;

  /// Liveness probe; returns the replica's current epoch.
  virtual Result<uint64_t> Health() = 0;
  virtual Result<ShardMeta> Meta() = 0;
  /// With `trace`, the result's `spans` carries the replica's stage spans
  /// (remote clock domain — see ShardQueryResult::spans).
  virtual Result<ShardQueryResult> ShardQuery(const Graph& query,
                                              const std::vector<int>& shards,
                                              double sigma,
                                              bool trace = false) = 0;
  /// With `trace` and a non-null `spans_out`, appends the replica's verify
  /// spans on success (remote clock domain).
  virtual Result<std::vector<int>> ShardVerify(
      const Graph& query, const std::vector<int>& ids, double sigma,
      bool trace = false, std::vector<TraceSpan>* spans_out = nullptr) = 0;
  /// Idempotent explicit-placement write; returns the publishing epoch
  /// (0 when the replica had already applied this placement).
  virtual Result<uint64_t> ShardAdd(int gid, int shard, const Graph& g) = 0;

  struct RemoveOutcome {
    uint64_t epoch = 0;
    /// False when the gid was already dead on this replica (idempotent
    /// re-delivery during catch-up).
    bool applied = false;
  };
  virtual Result<RemoveOutcome> ShardRemove(int gid) = 0;

  /// Registers this endpoint's RPC instrumentation — one latency-histogram
  /// child per op under `pis_cluster_rpc_seconds{endpoint,op}` plus a
  /// transport-error counter — and starts recording. Same setup contract as
  /// EngineHost::EnableMetrics: call before the backend is shared across
  /// threads; the cached pointers are then read unsynchronized and poked
  /// atomics-only.
  void EnableMetrics(MetricsRegistry* registry);

 protected:
  /// Observes one completed call into the per-op latency histogram; a
  /// transport-classified failure (IsTransportError) also counts toward the
  /// endpoint's error counter. No-op until EnableMetrics.
  void RecordRpc(const char* op, double seconds, bool transport_error);

 private:
  /// Cached per-op children (fixed op vocabulary, resolved once so the
  /// record path never touches the registry mutex).
  struct RpcMetrics {
    Histogram* health = nullptr;
    Histogram* meta = nullptr;
    Histogram* shard_query = nullptr;
    Histogram* shard_verify = nullptr;
    Histogram* shard_add = nullptr;
    Histogram* shard_remove = nullptr;
    Counter* transport_errors = nullptr;
  };
  RpcMetrics rpc_metrics_;
};

/// \brief An in-process EngineHost serving a shard subset.
class LocalShardBackend : public ShardBackend {
 public:
  /// `host` must outlive the backend. `shards_owned` empty = all shards.
  LocalShardBackend(EngineHost* host, std::vector<int> shards_owned,
                    std::string name);

  const std::string& name() const override { return name_; }
  Result<uint64_t> Health() override;
  Result<ShardMeta> Meta() override;
  Result<ShardQueryResult> ShardQuery(const Graph& query,
                                      const std::vector<int>& shards,
                                      double sigma,
                                      bool trace = false) override;
  Result<std::vector<int>> ShardVerify(
      const Graph& query, const std::vector<int>& ids, double sigma,
      bool trace = false,
      std::vector<TraceSpan>* spans_out = nullptr) override;
  Result<uint64_t> ShardAdd(int gid, int shard, const Graph& g) override;
  Result<RemoveOutcome> ShardRemove(int gid) override;

 private:
  EngineHost* host_;
  std::vector<int> shards_owned_;  // sorted; empty = all
  std::string name_;
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

  const std::string& name() const override { return name_; }
  Result<uint64_t> Health() override;
  Result<ShardMeta> Meta() override;
  Result<ShardQueryResult> ShardQuery(const Graph& query,
                                      const std::vector<int>& shards,
                                      double sigma,
                                      bool trace = false) override;
  Result<std::vector<int>> ShardVerify(
      const Graph& query, const std::vector<int>& ids, double sigma,
      bool trace = false,
      std::vector<TraceSpan>* spans_out = nullptr) override;
  Result<uint64_t> ShardAdd(int gid, int shard, const Graph& g) override;
  Result<RemoveOutcome> ShardRemove(int gid) override;

  /// Sends one request object and decodes the reply: an {"ok":false} frame
  /// becomes its typed application Status (via the "code" field), a
  /// transport failure drops the pooled socket and returns the transport
  /// Status. Exposed for pis_router's raw passthrough and the fuzz tests.
  Result<JsonValue> RoundTrip(const JsonValue& request) PIS_EXCLUDES(mu_);

 private:
  /// RoundTrip minus the instrumentation (the timed socket work).
  Result<JsonValue> RoundTripInner(const JsonValue& request)
      PIS_EXCLUDES(mu_);

  std::string host_;
  int port_;
  int timeout_ms_;
  std::string name_;

  Mutex mu_;
  TcpSocket conn_ PIS_GUARDED_BY(mu_);
};

}  // namespace pis

#endif  // PIS_SERVER_SHARD_BACKEND_H_
