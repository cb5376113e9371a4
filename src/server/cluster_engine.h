// The fan-out/merge router core of the distributed shard fabric: a set of
// ShardBackend replicas, a cluster manifest mapping every shard to the
// replicas that serve it, and a query/write engine whose externally
// observable behaviour — answers, candidate lists, and every shared
// QueryStats counter — is identical to a single-process PisEngine
// over the same logical database.
//
// How the equivalence is engineered: the router and the replicas run the
// three steps of core/shard_filter.h that PisEngine runs in-process. The
// intersection and the pass-2 lower bounds are shard-local; only the
// selectivities and the partition need global input. So a query runs in
// two rounds around one local step:
//
//   round 1  shard_filter to a COVER (one healthy replica per shard, shards
//            grouped per endpoint), returning the fragment catalog and,
//            per shard, the intersection survivors, one (distance, count)
//            histogram per fragment and the live count.
//   plan     PlanFilter over the per-shard outputs: selectivities from the
//            summed histograms and live counts, ε-filter, partition.
//   round 2  shard_refine on every shard (one readable replica each): the
//            partition's range queries prune the shard's survivors, the
//            replica verifies what remains and returns the candidates and
//            answers, which union ascending.
//
// Writes are serialized by the router (the sole writer and global-metadata
// authority): placement mirrors ShardedFragmentIndex::AddGraph (least
// loaded live count, ties to the lowest shard id) and the new gid is the
// next slot, so a cluster that applies the router's write sequence holds
// the same routing table as the oracle applying AddGraph calls. Each write
// fans to EVERY replica of the owning shard as an idempotent explicit
// placement (shard_add gid/shard) and commits once >= 1 replica acks;
// replicas that missed it get the op appended to a per-endpoint ordered
// catch-up queue which the health thread drains when the replica returns
// (idempotency is what makes replaying a possibly-applied op safe). A
// write acked by NO replica still commits router state, queues everywhere,
// and reports Unavailable — the ambiguous-failure contract documented in
// docs/cluster.md (the op may have landed on a replica that died after
// applying; reserving the gid keeps a later retry from colliding).
//
// Reads never touch a replica with queued catch-up ops (it is behind acked
// state), a quarantined replica (one that rejected a write it can never
// apply, so it silently diverged) or an open circuit breaker; transport failures during a query
// trip the breaker and the round retries on the next healthy cover, so a
// replica kill mid-stream degrades to failover, not wrong answers.
#ifndef PIS_SERVER_CLUSTER_ENGINE_H_
#define PIS_SERVER_CLUSTER_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/options.h"
#include "core/pis.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/shard_backend.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// Shard -> replica endpoints. JSON form:
///   {"shards": [{"replicas": ["127.0.0.1:4871", "127.0.0.1:4872"]},
///               {"replicas": ["127.0.0.1:4873"]}]}
/// Entry i lists the endpoints serving shard i; an endpoint may (and
/// typically does) appear under several shards.
struct ClusterManifest {
  struct Shard {
    std::vector<std::string> replicas;  // "host:port"
  };
  std::vector<Shard> shards;

  static Result<ClusterManifest> FromJson(const JsonValue& json);
  static Result<ClusterManifest> LoadFile(const std::string& path);
};

struct ClusterEngineOptions {
  /// Per-request socket deadline for remote replicas (connect + each round
  /// trip); <= 0 blocks indefinitely.
  int timeout_ms = 5000;
  /// Consecutive transport failures that open an endpoint's breaker.
  int breaker_threshold = 3;
  /// How long an open breaker rejects an endpoint before the health thread
  /// probes it again.
  int breaker_open_ms = 500;
  /// Health-probe cadence (StartHealthThread); the probe also drains
  /// catch-up queues of recovered replicas.
  int health_interval_ms = 100;
  /// Engine knobs. The router plans with its own sigma/lambda/epsilon/
  /// partition choices; max_query_fragments must match the replicas'
  /// config (they enumerate).
  PisOptions options;
  /// The engine registers its fabric metrics here (breaker state and
  /// transitions, catch-up queue depth, failover counts, and each backend's
  /// per-endpoint RPC latency) at construction and records them
  /// atomics-only afterwards; null records into a registry the engine
  /// owns. Must outlive the engine.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Fan-out/merge engine over a set of shard-replica backends.
///
/// Thread-safe: queries run concurrently with each other and with writes
/// (they read no router state beyond endpoint health); writes are
/// serialized internally.
class ClusterEngine {
 public:
  /// Takes ownership of the backends. `shards_of[e]` lists the shards
  /// backend e serves; every shard must be covered by >= 1 backend.
  /// Call Bootstrap() before serving.
  ClusterEngine(std::vector<std::unique_ptr<ShardBackend>> backends,
                std::vector<std::vector<int>> shards_of,
                const ClusterEngineOptions& options);
  ~ClusterEngine();
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// Connects RemoteShardBackends per the manifest (one backend per unique
  /// endpoint string) and bootstraps.
  static Result<std::unique_ptr<ClusterEngine>> Connect(
      const ClusterManifest& manifest, const ClusterEngineOptions& options);

  /// Adopts the global routing state (slot count, routing table,
  /// tombstones) from the highest-epoch reachable replica. The cluster
  /// must be quiesced (no in-flight writes from a previous router) —
  /// epochs order ops per replica, not across them. InvalidArgument when
  /// replicas disagree structurally; Unavailable when nothing is
  /// reachable.
  Status Bootstrap() PIS_EXCLUDES(writer_mu_, state_mu_);

  /// Starts the background prober (health checks, breaker reset, catch-up
  /// drain). No-op when already running.
  void StartHealthThread() PIS_EXCLUDES(health_mu_);
  void StopHealthThread() PIS_EXCLUDES(health_mu_);

  /// One probe-and-drain pass over every endpoint, synchronously — what
  /// the health thread runs each tick. Exposed so tests (and single-shot
  /// tools) can force recovery without waiting out the cadence.
  void ProbeOnce() PIS_EXCLUDES(writer_mu_);

  // -- Queries (see class comment for the two-round protocol) --------------

  /// The configured default similarity threshold (what Search(query) uses).
  double sigma() const { return options_.options.sigma; }

  Result<SearchResult> Search(const Graph& query)
      PIS_EXCLUDES(writer_mu_, state_mu_);
  /// Per-query sigma override (the router front end's "sigma" field).
  Result<SearchResult> Search(const Graph& query, double sigma)
      PIS_EXCLUDES(writer_mu_, state_mu_);
  /// Traced variant: with a non-null `trace`, records the two-round span
  /// tree — one `shard_filter:<endpoint>` round-trip span per cover group
  /// (remote stage spans grafted as children), `plan`, and one
  /// `shard_refine:shardN@<endpoint>` span per shard. Each round visits its
  /// endpoints one after another, so sibling spans do not overlap and their
  /// durations sum to at most the trace total. Stats
  /// report round 1 plus the selectivities as pass1_seconds, the rest of
  /// the plan as partition_seconds, and round 2 (refine and verify run
  /// together on the replicas) as verify_seconds.
  Result<SearchResult> Search(const Graph& query, double sigma,
                              TraceContext* trace)
      PIS_EXCLUDES(writer_mu_, state_mu_);
  /// Same contract as PisEngine::SearchBatch (0 = all hardware
  /// threads); the batch's queries run concurrently.
  BatchSearchResult SearchBatch(std::span<const Graph> queries,
                                int num_threads = 0)
      PIS_EXCLUDES(writer_mu_, state_mu_);

  // -- Writes (router-serialized; see class comment for replication) -------

  /// Places and replicates one graph; returns its global id. Unavailable
  /// with NO acks is ambiguous: the gid is committed and will reach every
  /// replica via catch-up, but the caller cannot assume visibility yet.
  Result<int> AddGraph(const Graph& g) PIS_EXCLUDES(writer_mu_, state_mu_);
  /// Tombstones one live graph cluster-wide. Same ambiguous-failure
  /// contract as AddGraph.
  Status RemoveGraph(int gid) PIS_EXCLUDES(writer_mu_, state_mu_);

  // -- Introspection --------------------------------------------------------

  struct EndpointStatus {
    std::string name;
    std::vector<int> shards;
    bool breaker_open = false;
    bool quarantined = false;
    int consecutive_failures = 0;
    size_t pending_ops = 0;
  };
  struct ClusterStats {
    uint64_t epoch = 0;  // max replica epoch observed on the write path
    int db_slots = 0;
    int live = 0;
    int num_shards = 0;
    std::vector<EndpointStatus> endpoints;
  };
  ClusterStats Stats() PIS_EXCLUDES(state_mu_);
  JsonValue StatsJson();

  int num_shards() const { return static_cast<int>(shard_endpoints_.size()); }

 private:
  /// One queued catch-up op (an add carries the whole graph so the queue
  /// is self-contained — the router has no storage of its own).
  struct PendingOp {
    bool is_add = false;
    int gid = 0;
    int shard = 0;
    Graph graph;  // adds only
  };

  /// Per-endpoint replica state. send_mu serializes every WRITE to the
  /// endpoint (direct or catch-up drain) so the replica applies the
  /// router's ops in commit order; reads bypass it (they are stateless and
  /// the backend serializes frames internally).
  struct Endpoint {
    std::unique_ptr<ShardBackend> backend;
    std::vector<int> shards;  // sorted shard ids this endpoint serves

    Mutex send_mu;
    std::deque<PendingOp> pending PIS_GUARDED_BY(send_mu);
    /// Sticky: set when the replica rejected a write (directly or during
    /// catch-up), so it silently misses acked state and never serves reads
    /// again. Cleared only by a router restart.
    bool quarantined PIS_GUARDED_BY(send_mu) = false;

    Mutex health_mu;
    int consecutive_failures PIS_GUARDED_BY(health_mu) = 0;
    std::chrono::steady_clock::time_point open_until
        PIS_GUARDED_BY(health_mu);

    /// Metric children, registered at construction. The breaker gauge
    /// reports the sticky open/closed state — it stays 1 through the
    /// half-open probe window until a success closes it.
    Gauge* breaker_open_gauge = nullptr;
    Counter* breaker_opened = nullptr;
    Counter* breaker_closed = nullptr;
    Gauge* catchup_depth = nullptr;
    Gauge* quarantined_gauge = nullptr;
  };

  /// Endpoint is currently eligible to serve reads: breaker closed, not
  /// quarantined, and no queued catch-up ops (a replica with pending ops is
  /// behind acked state).
  bool Readable(Endpoint& ep);
  /// Takes `ep` out of reads for good after it rejected the write for
  /// `gid`.
  void Quarantine(Endpoint& ep, int gid, const Status& rejection)
      PIS_REQUIRES(ep.send_mu);
  void NoteTransportFailure(Endpoint& ep);
  void NoteTransportSuccess(Endpoint& ep);
  /// Picks one readable endpoint per shard, excluding `exclude`; fills
  /// cover[s] with an endpoint index. Unavailable when a shard has none.
  Status PickCover(const std::unordered_set<int>& exclude,
                   std::vector<int>* cover);
  /// Applies one committed write to every replica of its shard: direct
  /// sends where possible, catch-up queue otherwise. Returns the ack count
  /// and the max acked epoch.
  int ReplicateOp(const PendingOp& op, uint64_t* max_epoch);
  /// Drains one endpoint's catch-up queue in order; stops (and re-trips
  /// the breaker) on the first transport failure. An op the replica
  /// rejects is dropped and quarantines the replica.
  void DrainPending(Endpoint& ep);
  void HealthLoop();

  ClusterEngineOptions options_;
  RegistryRef metrics_registry_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Cluster-wide metric children, registered at construction.
  struct Metrics {
    Counter* failovers = nullptr;
    Counter* catchup_dropped = nullptr;
  };
  Metrics metrics_;
  /// shard -> endpoint indexes serving it (manifest order: replica 0 is
  /// the preferred primary).
  std::vector<std::vector<int>> shard_endpoints_;

  /// Lock order: writer_mu_ before state_mu_ (never the reverse).
  Mutex writer_mu_;
  Mutex state_mu_;
  int db_slots_ PIS_GUARDED_BY(state_mu_) = 0;
  std::vector<int> routing_ PIS_GUARDED_BY(state_mu_);
  std::unordered_set<int> tombstones_ PIS_GUARDED_BY(state_mu_);
  std::vector<int> live_per_shard_ PIS_GUARDED_BY(state_mu_);
  uint64_t epoch_ PIS_GUARDED_BY(state_mu_) = 0;

  Mutex health_mu_;
  std::thread health_thread_ PIS_GUARDED_BY(health_mu_);
  CondVar health_cv_;
  bool health_stop_ PIS_GUARDED_BY(health_mu_) = false;
};

}  // namespace pis

#endif  // PIS_SERVER_CLUSTER_ENGINE_H_
