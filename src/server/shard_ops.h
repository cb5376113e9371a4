// Shard-level request handlers of the distributed serving fabric, shared by
// pis_server (which executes them over a pinned EngineHost snapshot) and
// the router's backends (LocalShardBackend executes them in-process;
// RemoteShardBackend decodes their wire form).
//
// The distributed query protocol merges at the PER-FRAGMENT RANGE-QUERY
// level, not the candidate level: the PIS filter's selectivity denominator
// is the GLOBAL live count, the ε-filter keeps fragments globally, and the
// partition is chosen once over the merged selectivities — running the full
// filter per shard and unioning candidates would answer a different
// (wrong) algorithm. So a shard server's job is exactly what
// ShardedPisEngine's per-shard fan-out does in-process:
//
//   shard_query : enumerate the query's fragments against the (identical,
//                 frozen) class catalog, run each fragment's range query
//                 over the requested owned shards, and return the
//                 per-fragment {global gid -> min distance} maps. The router
//                 unions the maps across its shard cover (disjoint gid
//                 spaces) and runs RunPisFilterCore globally.
//   shard_verify: verify a set of global candidate ids the router already
//                 filtered (each resident in a shard this replica owns) and
//                 return the ids within sigma.
//   meta        : the replica's routing/tombstone/epoch state, which is how
//                 a router bootstraps its global view of the cluster.
//
// JSON numbers round-trip doubles exactly (util/json.h emits
// shortest-round-trip forms), so the merged distances — and therefore
// selectivities, partition choice, and every pass-2 bound — are
// bit-identical to the single-process engine's.
#ifndef PIS_SERVER_SHARD_OPS_H_
#define PIS_SERVER_SHARD_OPS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/query_fragments.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "server/engine_host.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// One replica's view of the cluster-relevant index state (`meta` op).
struct ShardMeta {
  uint64_t epoch = 0;
  /// Graph-id slots ever assigned (monotone; dead and absent included).
  int db_slots = 0;
  int num_shards = 0;
  /// Shards this replica serves (sorted; empty = all of them).
  std::vector<int> shards_owned;
  /// gid -> owning shard, -1 for compacted-away slots.
  std::vector<int> routing;
  /// Every dead gid (sorted) — includes slots absent on this replica.
  std::vector<int> tombstones;
};

/// Outcome of one `shard_query` round over a subset of owned shards.
struct ShardQueryResult {
  uint64_t epoch = 0;
  /// The query's enumerated fragments (class id + covered query vertices),
  /// in enumeration order. Deterministic given the frozen catalog, so every
  /// replica reports the identical list and the per-fragment maps align
  /// positionally across endpoints.
  std::vector<QueryFragment> fragments;
  /// fragments.size() maps: global gid -> min distance over the requested
  /// shards (Eq. 3 aggregation, already translated to global ids).
  std::vector<std::unordered_map<int, double>> dists;
  /// Shard-side stage spans (empty unless the request set "trace": true).
  /// Offsets are relative to the replica's own handler start — the remote
  /// clock domain (obs/trace.h) — so the router grafts them under its
  /// round-trip span instead of interleaving them with local siblings.
  std::vector<TraceSpan> spans;
};

/// InvalidArgument unless every requested shard is within range and owned
/// (`owned` sorted; empty = the replica owns every shard).
Status CheckShardsOwned(const std::vector<int>& requested,
                        const std::vector<int>& owned, int num_shards);

/// Executes `shard_query` over a pinned snapshot: fragment enumeration plus
/// one range query per (fragment, requested shard), merged to global ids.
/// `options` supplies the engine knobs that must match the cluster config
/// (max_query_fragments); `sigma`/`trace` are per-request. With `trace`,
/// the result carries spans for the enumeration and each requested shard's
/// range-query sweep.
Result<ShardQueryResult> RunShardQuery(const EngineHost::Snapshot& snap,
                                       const std::vector<int>& shards,
                                       const Graph& query, double sigma,
                                       const PisOptions& options,
                                       bool trace = false);

/// Executes `shard_verify`: verifies candidate ids (each live and resident
/// in one of this replica's shards — InvalidArgument otherwise) and returns
/// the ids within `sigma`, ascending. With `trace` and a non-null
/// `spans_out`, appends a span covering the verification (remote clock
/// domain, like ShardQueryResult::spans).
Result<std::vector<int>> RunShardVerify(const EngineHost::Snapshot& snap,
                                        const std::vector<int>& ids,
                                        const Graph& query, double sigma,
                                        const PisOptions& options,
                                        bool trace = false,
                                        std::vector<TraceSpan>* spans_out =
                                            nullptr);

/// Executes `meta` over a pinned snapshot.
ShardMeta CollectShardMeta(const EngineHost::Snapshot& snap,
                           const std::vector<int>& shards_owned);

/// Wire codecs (newline-delimited JSON protocol payloads). Encoders fill
/// the payload fields of a reply object; decoders validate shape and
/// return InvalidArgument on structural problems.
void ShardMetaToJson(const ShardMeta& meta, JsonValue* reply);
Result<ShardMeta> ShardMetaFromJson(const JsonValue& reply);
void ShardQueryResultToJson(const ShardQueryResult& result, JsonValue* reply);
Result<ShardQueryResult> ShardQueryResultFromJson(const JsonValue& reply);

}  // namespace pis

#endif  // PIS_SERVER_SHARD_OPS_H_
