// Shard-level request handlers of the distributed serving fabric, shared by
// pis_server and the router's in-process LocalShardBackend, and the wire
// codecs every ShardBackend uses. The ops:
//
//   shard_filter: enumerate the query's fragments against the frozen class
//                 catalog, then ShardFilter (core/shard_filter.h) over each
//                 requested owned shard.
//   shard_refine: ShardRefine on one owned shard with the router's
//                 partition (partition bound, then the graph-local
//                 certificate), then verify the remaining candidates.
//   meta        : the replica's routing/tombstone/epoch state, which is how
//                 a router bootstraps its global view of the cluster.
//   shard_add / shard_remove: idempotent replicated writes with an explicit
//                 placement preassigned by the router.
//
// JSON numbers round-trip doubles exactly (util/json.h emits
// shortest-round-trip forms), so the router's summed histograms — and
// therefore its selectivities and partition — are bit-identical to the
// single-process engine's.
#ifndef PIS_SERVER_SHARD_OPS_H_
#define PIS_SERVER_SHARD_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query_fragments.h"
#include "core/shard_filter.h"
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

/// `shard_filter`: pass 1 over a set of owned shards.
struct ShardFilterRequest {
  Graph query;
  std::vector<int> shards;  // strictly ascending
  double sigma = 0;
  bool trace = false;
};

struct ShardFilterReply {
  uint64_t epoch = 0;
  /// The query's enumerated fragments in enumeration order (only class id
  /// and covered query vertices cross the wire). Deterministic given the
  /// frozen catalog, so every replica reports the identical list.
  std::vector<QueryFragment> fragments;
  /// The requested shards and, parallel to them, each one's pass 1.
  std::vector<int> shards;
  std::vector<ShardFilterResult> results;
  /// Replica-side stage spans (empty unless the request set "trace").
  /// Offsets are relative to the replica's own handler start — the remote
  /// clock domain (obs/trace.h) — so the router grafts them under its
  /// round-trip span instead of interleaving them with local siblings.
  std::vector<TraceSpan> spans;
};

/// `shard_refine`: pass 2 and verification on one owned shard.
struct ShardRefineRequest {
  Graph query;
  int shard = 0;
  /// Partition positions into the query's fragment catalog, and their
  /// class ids, which the replica checks against its own enumeration.
  std::vector<int> partition;
  std::vector<int> classes;
  /// The shard's ascending shard_filter survivors.
  std::vector<int> survivors;
  double sigma = 0;
  bool trace = false;
};

struct ShardRefineReply {
  uint64_t epoch = 0;
  std::vector<int> candidates;  // ascending, after pass 2
  /// Survivors the partition bound kept, before certification (the shard's
  /// share of Yp): candidates.size() <= it <= the request's survivors.
  int partition_candidates = 0;
  std::vector<int> answers;     // ascending, verified within sigma
  std::vector<TraceSpan> spans;  // as ShardFilterReply::spans
};

/// Serves one cluster-fabric request against `host` as a replica owning
/// `owned` (sorted; empty = every shard): `health`, `meta`, `shard_filter`,
/// `shard_refine`, `shard_add` or `shard_remove`. Returns the whole reply
/// object — an ErrorReply (server/line_server.h) on failure, e.g. NotFound
/// from shard_refine when a survivor is not live here (the replica is
/// behind; the router fails over). pis_server and LocalShardBackend both
/// answer through it, so in-process and remote replicas behave alike.
JsonValue ServeShardOp(EngineHost* host, const std::vector<int>& owned,
                       const JsonValue& request);

/// InvalidArgument unless `got` (from replica `who`) lists the same
/// fragments — class ids and vertex sets, in order — as `want`.
Status CheckSameCatalog(const std::vector<QueryFragment>& want,
                        const std::vector<QueryFragment>& got,
                        const std::string& who);

/// Wire codecs (newline-delimited JSON protocol payloads). Request encoders
/// build the whole request object; reply encoders fill the payload fields
/// of a reply object. Decoders are strict and return InvalidArgument on
/// any problem: every id or count must be an exact 32-bit integer and every
/// epoch an exact unsigned 64-bit integer (a fractional, negative, or
/// out-of-range number is rejected, never cast); graph ids and histogram
/// distances must be strictly ascending; distances finite and >= 0; counts
/// >= 1; one histogram per fragment; a shard_refine reply's answers within
/// its candidates and its partition_candidates at least its candidates
/// (the router checks the upper bound, its request's survivors).
void ShardMetaToJson(const ShardMeta& meta, JsonValue* reply);
Result<ShardMeta> ShardMetaFromJson(const JsonValue& reply);
JsonValue ShardFilterRequestToJson(const ShardFilterRequest& request);
Result<ShardFilterRequest> ShardFilterRequestFromJson(
    const JsonValue& request);
void ShardFilterReplyToJson(const ShardFilterReply& result, JsonValue* reply);
Result<ShardFilterReply> ShardFilterReplyFromJson(const JsonValue& reply);
JsonValue ShardRefineRequestToJson(const ShardRefineRequest& request);
Result<ShardRefineRequest> ShardRefineRequestFromJson(
    const JsonValue& request);
void ShardRefineReplyToJson(const ShardRefineReply& result, JsonValue* reply);
Result<ShardRefineReply> ShardRefineReplyFromJson(const JsonValue& reply);
/// The "epoch" member every replica reply carries.
Result<uint64_t> EpochFromJson(const JsonValue& reply);

}  // namespace pis

#endif  // PIS_SERVER_SHARD_OPS_H_
