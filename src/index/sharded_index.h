// Horizontal sharding of the PIS fragment index: every graph id is routed
// to exactly one per-shard FragmentIndex. A full Build assigns contiguous,
// balanced id ranges (and builds the shards in parallel); incremental
// AddGraph routes each new id to the least-loaded shard, so the routing is
// a general table rather than ranges. Every shard registers the identical
// class catalog — classes come from the feature set, not the data — so a
// query fragment prepared against any shard is valid against all of them.
// Persistence writes a directory holding a binary manifest (shard count +
// routing table) plus one index file per shard, so shards can later be
// loaded (or, eventually, served) independently, and a mutated index
// round-trips exactly. Deletion debt is repaid locally: CompactShard
// rewrites one shard without its tombstoned postings (global ids stay
// stable; dead ids simply stop being resident anywhere) and Rebalance
// migrates graphs off overloaded shards through the routing table, so the
// index can serve a mutating workload indefinitely without a full rebuild.
//
// Shards are held behind shared_ptr handles with copy-on-write mutation:
// copying a ShardedFragmentIndex is cheap (the copies share the per-shard
// indexes), and any mutator detaches — deep-copies — a shard before
// touching it whenever the handle is shared. The serving layer
// (server/engine_host.h) builds its immutable published snapshots on
// exactly this: a snapshot pins the shard handles it was published with,
// while the writer keeps mutating its own copy, and an expensive
// CompactShard rewrites happen on a detached copy that is swapped in —
// never under a concurrent reader.
#ifndef PIS_INDEX_SHARDED_INDEX_H_
#define PIS_INDEX_SHARDED_INDEX_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "index/fragment_index.h"
#include "util/status.h"

namespace pis {

/// \brief A fragment index partitioned into per-shard FragmentIndexes.
class ShardedFragmentIndex {
 public:
  /// Builds `num_shards` per-shard indexes over contiguous, balanced
  /// graph-id ranges of `db` (shard sizes differ by at most one). Shards
  /// build concurrently on `options.num_threads` threads (<= 1 =
  /// sequential); with more than one shard each per-shard build is
  /// sequential so the two fan-outs don't multiply. `num_shards` may exceed
  /// db.size(); surplus shards are empty but still answer queries.
  static Result<ShardedFragmentIndex> Build(const GraphDatabase& db,
                                            const std::vector<Graph>& features,
                                            const FragmentIndexOptions& options,
                                            int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const FragmentIndex& shard(int s) const { return *shards_[s]; }
  /// Snapshot handle: keeps shard `s`'s current index alive independently of
  /// this object. A later mutation of shard `s` (on this index or any copy)
  /// detaches a fresh copy first, so the handle's index never changes under
  /// the holder — the building block of the serving layer's snapshots.
  std::shared_ptr<const FragmentIndex> shard_handle(int s) const {
    return shards_[s];
  }
  /// Graph-id slots resident in shard `s`: live plus tombstoned-but-not-
  /// yet-compacted (compaction evicts dead slots from the shard entirely).
  int shard_size(int s) const { return static_cast<int>(globals_[s].size()); }
  /// Shard owning global graph id `gid`, or -1 when the graph was removed
  /// and its postings compacted away (it is resident nowhere).
  int shard_of(int gid) const;
  /// Global graph id of shard `s`'s local id `local` (the inverse of the
  /// routing: shard(s) emits local ids, queries report global ids).
  int global_id(int s, int local) const { return globals_[s][local]; }

  /// Total graph-id slots ever assigned (monotone; tombstoned and
  /// compacted-away slots included — ids are never reused).
  int db_size() const { return static_cast<int>(shard_of_.size()); }
  /// Live graphs — Σ over shards of shard(s).num_live(); the selectivity
  /// denominator the engines use.
  int num_live() const {
    return db_size() - static_cast<int>(tombstones_.size());
  }
  /// Every global graph id ever removed (monotone — compaction reclaims a
  /// dead graph's postings but its id stays dead forever). The engines seed
  /// their dead-slot sets from this, so it must cover compacted-away ids
  /// too; the per-shard tombstones() sets shrink to empty on compaction.
  const std::unordered_set<int>& tombstones() const { return tombstones_; }
  bool IsLive(int gid) const {
    return gid >= 0 && gid < db_size() && tombstones_.count(gid) == 0;
  }
  /// Dead fraction of shard `s`'s resident slots — the auto-compaction
  /// trigger signal. 0 for an empty shard.
  double shard_dead_ratio(int s) const { return shards_[s]->dead_ratio(); }

  /// Incremental maintenance: routes the graph to the shard with the fewest
  /// live graphs (ties break toward the lowest shard id, so a fixed update
  /// sequence yields a deterministic routing) and indexes it there.
  /// Returns the new global id, db_size() before the call. The caller must
  /// append the same graph to its GraphDatabase to keep ids aligned.
  Result<int> AddGraph(const Graph& g);
  /// Explicit-placement add for replicated serving: indexes `g` into shard
  /// `shard` under the preassigned global id `gid`, which must be >=
  /// db_size() (ids are never rewritten). Id slots in [db_size, gid) — gids
  /// a shard-subset replica never saw because foreign shards own them — are
  /// backfilled as absent: resident nowhere (shard_of -1) and globally
  /// tombstoned, so local queries over the owned shards behave exactly as
  /// the cluster-wide index does for those shards. The caller must place
  /// the same graph at slot `gid` of its id-aligned GraphDatabase.
  Status AddGraphAt(int gid, int shard, const Graph& g);
  /// Tombstones global id `gid` in its owning shard. NotFound when out of
  /// range or already removed. When an auto-compaction threshold is set
  /// (set_compact_dead_ratio) and the owning shard's dead ratio reaches it,
  /// the shard is compacted before returning.
  Status RemoveGraph(int gid);

  /// Compacts shard `s`: drops its tombstoned postings, re-densifies its
  /// local ids, and evicts the dead slots from the routing table (their
  /// shard_of becomes -1). Global ids — and therefore every engine-visible
  /// query result — are unchanged. No-op when the shard has no tombstones.
  Status CompactShard(int s);
  /// Compacts every shard whose dead ratio is >= `min_dead_ratio` (with the
  /// default 0, every shard holding any tombstone). Returns the number of
  /// shards compacted.
  Result<int> Compact(double min_dead_ratio = 0.0);

  /// Auto-compaction policy: a threshold in (0, 1] makes RemoveGraph
  /// compact the owning shard once its dead ratio reaches the threshold
  /// (PisOptions::compact_dead_ratio is the conventional source of the
  /// value). 0 — the default — disables the policy. Persisted by manifest
  /// v4, so a reloaded server keeps its policy; v1-v3 directories load with
  /// the policy off.
  void set_compact_dead_ratio(double ratio) { compact_dead_ratio_ = ratio; }
  double compact_dead_ratio() const { return compact_dead_ratio_; }

  /// Rebalancing: while the live-count spread between the fullest and
  /// emptiest shards exceeds one, migrates the most recently indexed live
  /// graph of the fullest shard (lowest shard id on ties, so the plan is
  /// deterministic) to the emptiest one — re-indexing it there from `db`,
  /// which must be this index's id-aligned database — then compacts every
  /// donor shard. Global ids never change; only the routing table does.
  /// Returns the number of graphs migrated (0 when already balanced).
  Result<int> Rebalance(const GraphDatabase& db);

  /// Total CompactShard rewrites absorbed (manifest v3 persists this;
  /// informational, e.g. surfaced by `pis_cli stats`).
  int compaction_epoch() const { return compaction_epoch_; }

  /// Identical across shards (classes are feature-derived).
  int num_classes() const { return shards_.front()->num_classes(); }
  const FragmentIndexOptions& options() const { return options_; }
  /// Wall-clock build time of the whole sharded build (covers the parallel
  /// per-shard builds; per-shard CPU times are in shard(s).stats()).
  double build_seconds() const { return build_seconds_; }

  /// Persists a manifest (shard count, compaction epoch, per-graph routing
  /// and local ids, per-shard live counts) plus one file per shard under
  /// `dir`, creating the directory if needed. Tombstones travel inside the
  /// per-shard files, so a mutated index round-trips — including one that
  /// was compacted or rebalanced.
  Status SaveDir(const std::string& dir) const;
  /// Loads a directory written by SaveDir (current, v2 routing-table, or v1
  /// contiguous-range manifests). Returns InvalidArgument when a
  /// structurally readable manifest disagrees with the files on disk
  /// (missing/surplus shard files, shard sizes, routing, or live counts out
  /// of step) or is truncated mid-section, ParseError on garbage.
  static Result<ShardedFragmentIndex> LoadDir(const std::string& dir);

 private:
  ShardedFragmentIndex() = default;

  /// Rebuilds globals_/local_of_ from shard_of_, assuming insertion-ordered
  /// routing (local ids ascend with global ids within a shard). Valid for
  /// freshly built indexes and v1/v2 manifests; rebalanced indexes violate
  /// the assumption, which is why manifest v3 persists local_of_ verbatim.
  void DeriveRouting();
  /// Rebuilds globals_ from shard_of_/local_of_ (any routing shape).
  Status DeriveGlobalsFromLocals();

  /// Copy-on-write guard: returns shard `s` for mutation, first detaching a
  /// deep copy when the handle is shared (a snapshot or another index copy
  /// still pins the current one). Every mutator goes through this, so a
  /// shard an outside holder can observe is never modified in place.
  Result<FragmentIndex*> MutableShard(int s);

  FragmentIndexOptions options_;
  /// Shared with snapshot handles and index copies; COW via MutableShard.
  std::vector<std::shared_ptr<FragmentIndex>> shards_;
  /// Global graph id -> owning shard; -1 once the graph was removed and
  /// compacted away (resident nowhere).
  std::vector<int> shard_of_;
  /// Global graph id -> local id inside its shard's FragmentIndex; -1 for
  /// compacted-away ids.
  std::vector<int> local_of_;
  /// Shard -> local id -> global graph id.
  std::vector<std::vector<int>> globals_;
  /// Every removed global id ever (monotone superset of the per-shard
  /// tombstone sets, which compaction drains).
  std::unordered_set<int> tombstones_;
  double compact_dead_ratio_ = 0.0;
  int compaction_epoch_ = 0;
  double build_seconds_ = 0;
};

}  // namespace pis

#endif  // PIS_INDEX_SHARDED_INDEX_H_
