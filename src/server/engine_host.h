// The concurrent serving core: an EngineHost owns a sharded PIS index (plus
// its id-aligned database) behind immutable published snapshots, giving
//
//   - non-blocking concurrent readers: Search pins the current snapshot
//     (one shared_ptr copy under a mutex held for just that copy — never
//     across query work), runs entirely against immutable state, and never
//     waits on — or gets waited on by — a mutation in flight;
//   - linearizable results: mutators run under one writer mutex and publish
//     a complete new snapshot as their single atomic commit point, so every
//     query observes exactly the state left by some prefix of the applied
//     mutations (never a partial one), and a mutation that returned is
//     visible to every snapshot taken afterwards;
//   - durable writes: with a WriteAheadLog attached, every AddGraph /
//     RemoveGraph batch is appended and fsynced BEFORE any caller gets its
//     result, so an acknowledged write survives kill -9 — restart replays
//     the log over the last checkpoint (see server/wal.h);
//   - zero-downtime maintenance: CompactShard / Compact rewrite shards on
//     detached copies (the copy-on-write layer of
//     ShardedFragmentIndex) and land via shard-handle swap, so the
//     PR 4 dead-ratio policy — and now periodic checkpointing — run on the
//     background maintenance thread while queries keep answering.
//
// Cost model: publishing shares everything a mutation didn't touch. The
// database holds its graphs as shared immutable objects, so the appended
// database an add publishes copies one pointer per graph and shares every
// Graph with the snapshots still pinning the old one; the index detaches
// (copies in memory) only the shards a batch mutates. AddGraph/RemoveGraph
// also group-commit: concurrent callers enqueue onto a commit queue, one
// leader drains the whole batch under the writer mutex and pays ONE
// database pointer copy, at most one detach per touched shard, ONE WAL
// fsync, and ONE snapshot publish for the N queued ops. RemoveGraph
// tombstones and compaction never move global ids. Readers pay
// one mutex-guarded shared_ptr copy (std::atomic<std::shared_ptr> would
// make the pin lock-free, but libstdc++'s implementation trips TSan — the
// explicit mutex keeps the CI race-checking meaningful and costs
// nanoseconds).
//
// Locking: every mutex here is a capability-annotated pis::Mutex and every
// guarded field carries PIS_GUARDED_BY, so clang's -Wthread-safety proves
// the discipline at compile time. The acquisition hierarchy (a thread may
// only take locks left-to-right) is documented in docs/locking.md:
//
//   checkpoint_mu_ -> writer_mu_ -> snapshot_mu_
//   commit_mu_ (never held across writer_mu_ — released before CommitBatch)
//   compactor_lifecycle_mu_ -> compactor_mu_
#ifndef PIS_SERVER_ENGINE_HOST_H_
#define PIS_SERVER_ENGINE_HOST_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "core/pis.h"
#include "graph/graph.h"
#include "index/sharded_index.h"
#include "obs/metrics.h"
#include "server/wal.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// \brief Snapshot-isolated serving host over a sharded PIS index.
class EngineHost {
 public:
  /// One immutable published state. Readers that want a consistent view
  /// across several calls (the cluster-fabric shard ops) pin one of these
  /// and use `engine` or the index directly; the shared_ptr keeps db and
  /// index alive.
  struct Snapshot {
    std::shared_ptr<const GraphDatabase> db;
    std::shared_ptr<const ShardedFragmentIndex> index;
    PisEngine engine;  // views into *db / *index
    /// Number of commits applied before this snapshot; bumps by exactly one
    /// per published commit — a group-committed batch of N writer calls
    /// shares one epoch (background compactor passes that compacted at
    /// least one shard also count one).
    uint64_t epoch = 0;

    Snapshot(std::shared_ptr<const GraphDatabase> db_in,
             std::shared_ptr<const ShardedFragmentIndex> index_in,
             const PisOptions& options, uint64_t epoch_in)
        : db(std::move(db_in)),
          index(std::move(index_in)),
          engine(db.get(), index.get(), options),
          epoch(epoch_in) {}
  };

  /// Per-shard serving stats (machine-readable via HostStats::ToJson).
  struct ShardInfo {
    int resident = 0;
    int live = 0;
    int dead = 0;
    double dead_ratio = 0;
  };
  /// The host's state at one snapshot: index shape from the snapshot, the
  /// counters rendered from the host's metric instruments.
  struct HostStats {
    uint64_t epoch = 0;
    int db_slots = 0;
    int live = 0;
    int removed = 0;
    int num_shards = 0;
    int compaction_epoch = 0;
    double compact_dead_ratio = 0;
    uint64_t background_compactions = 0;
    /// Durability counters — all zero when no WAL is attached.
    uint64_t wal_bytes = 0;
    uint64_t wal_records = 0;
    uint64_t checkpoints = 0;
    /// Group-commit counters: published batches, writer ops they carried,
    /// and the largest single batch observed (>1 proves writes coalesced).
    uint64_t group_commit_batches = 0;
    uint64_t group_commit_ops = 0;
    uint64_t group_commit_max_batch = 0;
    std::vector<ShardInfo> shards;

    /// JSON shape ({"epoch":..,"shards":[{..},..],..}) — the payload of
    /// the server's `stats` reply and `pis_cli stats --json`.
    JsonValue ToJsonValue() const;
    /// Compact one-line rendering of ToJsonValue().
    std::string ToJson() const { return ToJsonValue().Serialize(); }
  };

  /// Where Checkpoint() persists a snapshot. The pair is written to temp
  /// names, fsynced, and swapped in atomically (`<index_dir>.stale` briefly
  /// holds the previous index during the swap — loaders fall back to it if
  /// a crash lands mid-swap), after which the WAL is truncated through the
  /// checkpointed epoch.
  struct CheckpointConfig {
    std::string index_dir;
    std::string db_path;
    /// Periodic checkpoint cadence on the maintenance thread; zero means
    /// manual Checkpoint() calls only.
    std::chrono::milliseconds interval{0};
  };

  /// Takes ownership of an id-aligned database/index pair (the same
  /// alignment contract as PisEngine). The auto-compaction policy is
  /// `options.compact_dead_ratio` when set, else the ratio persisted in the
  /// index (manifest v4); either way it runs only on the background
  /// maintenance thread here — RemoveGraph never compacts inline.
  EngineHost(GraphDatabase db, ShardedFragmentIndex index,
             const PisOptions& options = {});
  ~EngineHost();
  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Hands this host's metric families — query counters and stage
  /// latencies, group commit, snapshot publish, checkpoints, background
  /// compactions and the attached WAL's — to `registry`, which renders them
  /// from then on (MetricsRegistry::Adopt). The host records from
  /// construction on into a registry it owns, so what happened before this
  /// call carries over, and the call is safe at any time, including while
  /// the host serves.
  void EnableMetrics(MetricsRegistry* registry) PIS_EXCLUDES(writer_mu_);

  /// Makes writes durable: every subsequent AddGraph/RemoveGraph batch is
  /// appended to `wal` and fsynced before the callers return. The caller
  /// is expected to have already applied wal->Replay() to the state this
  /// host was constructed from; the host seeds its epoch from
  /// wal->max_recovered_epoch() so epochs stay monotone across restarts.
  /// AlreadyExists when a WAL is already attached.
  Status AttachWal(std::unique_ptr<WriteAheadLog> wal)
      PIS_EXCLUDES(writer_mu_);
  bool wal_attached() const;

  /// Configures checkpointing (requires an attached WAL — a checkpoint is
  /// what lets the log be truncated). With a nonzero interval the
  /// maintenance thread (StartAutoCompaction) checkpoints periodically;
  /// Checkpoint() is always available for manual/exit-path saves.
  Status EnableCheckpoints(CheckpointConfig config)
      PIS_EXCLUDES(checkpoint_mu_, compactor_lifecycle_mu_);

  /// Persists the current snapshot to the configured paths and truncates
  /// the WAL through its epoch. Runs off a pinned immutable snapshot, so
  /// writers and readers proceed concurrently; only the final WAL truncate
  /// briefly takes the writer mutex.
  Status Checkpoint() PIS_EXCLUDES(checkpoint_mu_, writer_mu_);
  uint64_t checkpoints() const { return metrics_.checkpoints->value(); }

  /// The current published snapshot (a pointer copy; never null). The
  /// returned snapshot stays valid and frozen for as long as the caller
  /// holds it, regardless of concurrent mutations.
  std::shared_ptr<const Snapshot> snapshot() const
      PIS_EXCLUDES(snapshot_mu_);

  /// The reader: pins one snapshot for the whole query and folds the
  /// query's stats into the host's metric families. `sigma` overrides
  /// options().sigma for this query (InvalidArgument when negative);
  /// `epoch_out` (nullable) receives the epoch of the snapshot it answered
  /// at.
  Result<SearchResult> Search(const Graph& query,
                              std::optional<double> sigma = std::nullopt,
                              uint64_t* epoch_out = nullptr) const;

  /// Group-committed writers. Concurrent callers coalesce into one batch:
  /// a leader applies every queued op, appends + fsyncs one WAL batch (when
  /// attached), and publishes ONE snapshot covering them all — each caller
  /// still gets its own gid/status, and a successful return still means
  /// "durable and visible to every later snapshot". `epoch_out` (nullable)
  /// receives the epoch of the publish that carried THIS mutation — reading
  /// snapshot()->epoch afterwards could observe a later commit.
  ///
  /// AddGraph is AddGraphAt at the next slot (db_size() when its batch
  /// applies it) in the LeastLoadedShard (index/sharded_index.h).
  Result<int> AddGraph(const Graph& g, uint64_t* epoch_out = nullptr)
      PIS_EXCLUDES(commit_mu_, writer_mu_);
  /// Explicit-placement writer for replicated serving: a cluster router
  /// preassigns the global id and owning shard, and every replica of that
  /// shard applies the identical placement. Gids below `gid` this host
  /// never received are materialized as absent slots (see
  /// ShardedFragmentIndex::AddGraphAt). Idempotent: re-submitting an
  /// already-applied placement — the footprint of a catch-up replay after a
  /// lost ack — succeeds without a new epoch or WAL record; a live gid
  /// below db_size() resident in another shard is AlreadyExists.
  Status AddGraphAt(int gid, int shard, const Graph& g,
                    uint64_t* epoch_out = nullptr)
      PIS_EXCLUDES(commit_mu_, writer_mu_);
  Status RemoveGraph(int gid, uint64_t* epoch_out = nullptr)
      PIS_EXCLUDES(commit_mu_, writer_mu_);

  /// Maintenance writers (not WAL-logged: they reorganize storage without
  /// changing the live membership replay reconstructs). Each successful
  /// call publishes exactly one new snapshot before returning.
  Status CompactShard(int s, uint64_t* epoch_out = nullptr)
      PIS_EXCLUDES(writer_mu_);
  Result<int> Compact(double min_dead_ratio = 0.0,
                      uint64_t* epoch_out = nullptr)
      PIS_EXCLUDES(writer_mu_);

  /// Background maintenance thread: every `interval`, compact shards whose
  /// dead ratio is at/above the policy ratio (see constructor), and — when
  /// EnableCheckpoints configured a nonzero cadence — checkpoint on that
  /// cadence. InvalidArgument when there is nothing to do (policy ratio
  /// zero AND no periodic checkpointing), or when already running. The
  /// first compaction scan runs immediately on start; the first checkpoint
  /// waits one full checkpoint interval.
  Status StartAutoCompaction(std::chrono::milliseconds interval)
      PIS_EXCLUDES(compactor_lifecycle_mu_, compactor_mu_, checkpoint_mu_);
  void StopAutoCompaction()
      PIS_EXCLUDES(compactor_lifecycle_mu_, compactor_mu_);
  bool auto_compaction_running() const
      PIS_EXCLUDES(compactor_lifecycle_mu_);
  /// Background passes that compacted at least one shard.
  uint64_t background_compactions() const {
    return metrics_.background_compactions->value();
  }

  HostStats Stats() const PIS_EXCLUDES(snapshot_mu_);

  /// Persists the index under `dir` (manifest v4 records the policy ratio)
  /// and the database to `db_path` (native text format) from one snapshot,
  /// so the pair on disk is always mutually consistent. Plain save — no
  /// fsync, no WAL truncation; prefer Checkpoint() when a WAL is attached.
  Status Save(const std::string& dir, const std::string& db_path) const
      PIS_EXCLUDES(writer_mu_);

  const PisOptions& options() const { return options_; }
  double compact_dead_ratio() const { return compact_dead_ratio_; }

 private:
  /// One queued writer call, stack-allocated in AddGraph/RemoveGraph and
  /// filled in by whichever thread ends up leading its batch. `done` is
  /// guarded by the host's commit_mu_ (not annotatable from a nested
  /// struct); the result fields are written by the leader before it flips
  /// `done` under that mutex, so the owner's read after observing done ==
  /// true is ordered by the mutex.
  struct PendingWrite {
    enum class Kind { kAdd, kRemove };
    Kind kind;
    const Graph* graph = nullptr;  // kAdd input
    /// kRemove input. kAdd placement: gid -1 (AddGraph) is filled in with
    /// the next slot and the least-loaded shard when the batch applies it.
    int gid = -1;
    int shard = -1;
    uint64_t epoch = 0;            // output: publish epoch of the batch
    Status status = Status::OK();  // output
    bool done = false;             // guarded by commit_mu_
  };

  /// Enqueues `op`, blocks until a batch leader (possibly this thread) has
  /// committed it and records the wait in the group-commit-wait
  /// histogram; on return op->status/gid/epoch are final.
  Status Submit(PendingWrite* op, uint64_t* epoch_out)
      PIS_EXCLUDES(commit_mu_, writer_mu_);
  /// Applies a drained batch: every op in order, one db pointer copy, one
  /// WAL append+fsync, one publish — all under writer_mu_, with commit_mu_
  /// released (that concurrency is where batching comes from). Does NOT
  /// touch done flags — the leader marks those under commit_mu_ afterwards.
  void CommitBatch(const std::vector<PendingWrite*>& batch)
      PIS_EXCLUDES(writer_mu_, commit_mu_);

  /// Folds one query's stats into the host's metric families. Atomics
  /// only — safe on the query path.
  void AccountQuery(const QueryStats& stats) const;
  /// Publishes master state as the next snapshot.
  void Publish() PIS_REQUIRES(writer_mu_) PIS_EXCLUDES(snapshot_mu_);
  void MaintenanceLoop(std::chrono::milliseconds interval)
      PIS_EXCLUDES(writer_mu_, compactor_mu_, checkpoint_mu_);

  /// The host's metric instruments, registered at construction into
  /// own_metrics_ (EnableMetrics moves them, not the pointers) and poked
  /// lock-free afterwards. HostStats reads its counters from here.
  struct Metrics {
    Counter* queries_total;
    Counter* answers_total;
    Counter* candidates_total;
    Counter* partition_candidates_total;
    Histogram* stage_pass1;
    Histogram* stage_selectivity;
    Histogram* stage_partition;
    Histogram* stage_pass2;
    Histogram* stage_filter;
    Histogram* stage_verify;
    Histogram* group_commit_wait;
    /// Observes every published batch's size: its count and sum are the
    /// group-commit batch and op counters.
    Histogram* group_commit_ops;
    Gauge* group_commit_max_batch;
    Histogram* write_apply;
    Histogram* snapshot_publish;
    Gauge* snapshot_epoch;
    Counter* checkpoints;
    Counter* background_compactions;
  };
  static Metrics RegisterMetrics(MetricsRegistry* registry);

  PisOptions options_;
  MetricsRegistry own_metrics_;
  const Metrics metrics_;
  /// The background policy ratio (options override, else persisted value).
  /// Written once in the constructor, read-only afterwards — that is what
  /// lets Stats()/Save()/Checkpoint() read it without a capability.
  double compact_dead_ratio_ = 0;

  /// Writer state: mutators copy-on-write from here and publish. master_db_
  /// is never mutated in place once shared with a snapshot — a committing
  /// batch replaces it with one appended copy that shares every existing
  /// graph.
  mutable Mutex writer_mu_;
  std::shared_ptr<const GraphDatabase> master_db_ PIS_GUARDED_BY(writer_mu_);
  ShardedFragmentIndex master_ PIS_GUARDED_BY(writer_mu_);
  uint64_t epoch_ PIS_GUARDED_BY(writer_mu_) = 0;
  /// Durability sink; Append/TruncateThrough run under writer_mu_ (the WAL
  /// itself is not internally synchronized — see server/wal.h).
  std::unique_ptr<WriteAheadLog> wal_ PIS_GUARDED_BY(writer_mu_);
  /// Where a WAL attached later registers: own_metrics_ until
  /// EnableMetrics names another registry.
  MetricsRegistry* metrics_registry_ PIS_GUARDED_BY(writer_mu_) =
      &own_metrics_;
  /// Set once by AttachWal so Stats() can read the WAL's atomic counters
  /// without touching writer_mu_ (which a committing batch can hold for a
  /// while). Only bytes()/records() may be called through this pointer.
  std::atomic<const WriteAheadLog*> wal_view_{nullptr};

  /// Group-commit queue. commit_mu_ orders enqueue/leader-election/wakeup
  /// only — the actual commit work runs under writer_mu_ with commit_mu_
  /// released, so new writers keep enqueueing while a batch commits (that
  /// is where batching comes from).
  Mutex commit_mu_;
  CondVar commit_cv_;
  std::vector<PendingWrite*> commit_queue_ PIS_GUARDED_BY(commit_mu_);
  bool commit_leader_active_ PIS_GUARDED_BY(commit_mu_) = false;

  /// Guards only the pointer swap/copy of current_ — held for nanoseconds,
  /// never across query execution or mutation work.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> current_ PIS_GUARDED_BY(snapshot_mu_);

  /// Checkpoint destination. checkpoint_mu_ serializes whole Checkpoint()
  /// calls (manual vs periodic) without blocking writers, and guards the
  /// config fields against a concurrent EnableCheckpoints.
  Mutex checkpoint_mu_;
  CheckpointConfig checkpoint_ PIS_GUARDED_BY(checkpoint_mu_);
  bool checkpoints_enabled_ PIS_GUARDED_BY(checkpoint_mu_) = false;

  /// Background maintenance plumbing. compactor_lifecycle_mu_ guards the
  /// thread object itself (Start/Stop/running racing each other);
  /// compactor_mu_ guards only the stop flag the loop's condition variable
  /// waits on — the loop must be able to take it while Stop holds
  /// compactor_lifecycle_mu_ across join().
  mutable Mutex compactor_lifecycle_mu_;
  std::thread compactor_ PIS_GUARDED_BY(compactor_lifecycle_mu_);
  Mutex compactor_mu_;
  CondVar compactor_cv_;
  bool compactor_stop_ PIS_GUARDED_BY(compactor_mu_) = false;
};

}  // namespace pis

#endif  // PIS_SERVER_ENGINE_HOST_H_
