#include "server/shard_ops.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/verifier.h"

namespace pis {

namespace {

/// Strict int decode: the protocol ships graph ids as JSON numbers, and a
/// truncated 3.9 or an out-of-int32 value must fail loudly, not be cast.
Result<int> AsStrictInt(const JsonValue& v, const char* what) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double raw = v.AsNumber();
  if (raw != std::floor(raw) || raw < -2147483648.0 || raw > 2147483647.0) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be an exact 32-bit integer");
  }
  return static_cast<int>(raw);
}

/// The member `key` of `reply`, or a null value when absent (which every
/// strict decoder rejects as "must be a number").
const JsonValue& Member(const JsonValue& reply, const char* key) {
  static const JsonValue kMissing;
  const JsonValue* v = reply.Find(key);
  return v != nullptr ? *v : kMissing;
}

Result<std::vector<int>> ReadIntArray(const JsonValue& reply, const char* key) {
  const JsonValue* array = reply.Find(key);
  if (array == nullptr || !array->is_array()) {
    return Status::InvalidArgument(std::string("reply is missing array \"") +
                                   key + "\"");
  }
  std::vector<int> out;
  out.reserve(array->size());
  for (const JsonValue& item : array->items()) {
    PIS_ASSIGN_OR_RETURN(int value, AsStrictInt(item, key));
    out.push_back(value);
  }
  return out;
}

JsonValue IntArrayToJson(const std::vector<int>& values) {
  JsonValue array = JsonValue::Array();
  for (int v : values) array.Push(v);
  return array;
}

}  // namespace

Result<uint64_t> EpochFromJson(const JsonValue& reply) {
  const JsonValue& v = Member(reply, "epoch");
  if (!v.is_number()) {
    return Status::InvalidArgument("reply is missing a numeric \"epoch\"");
  }
  // 2^64 is exactly representable; anything at or above it (or negative, or
  // fractional) has no uint64_t value and must not reach the cast.
  const double raw = v.AsNumber();
  if (raw != std::floor(raw) || raw < 0 || raw >= 18446744073709551616.0) {
    return Status::InvalidArgument(
        "reply \"epoch\" must be an exact unsigned 64-bit integer");
  }
  return static_cast<uint64_t>(raw);
}

Status CheckShardsOwned(const std::vector<int>& requested,
                        const std::vector<int>& owned, int num_shards) {
  for (int s : requested) {
    if (s < 0 || s >= num_shards) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " is out of range (cluster has " +
                                     std::to_string(num_shards) + ")");
    }
    if (!owned.empty() &&
        !std::binary_search(owned.begin(), owned.end(), s)) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " is not owned by this replica");
    }
  }
  return Status::OK();
}

Result<ShardQueryResult> RunShardQuery(const EngineHost::Snapshot& snap,
                                       const std::vector<int>& shards,
                                       const Graph& query, double sigma,
                                       const PisOptions& options, bool trace) {
  if (query.Empty()) {
    // The same rejection PisEngine issues, so a router fanning this out
    // propagates an error identical to the single-process engine's.
    return Status::InvalidArgument("query graph is empty");
  }
  const ShardedFragmentIndex& index = *snap.index;
  ShardQueryResult result;
  result.epoch = snap.epoch;
  // Tracing is request-scoped: the id never leaves this function (the wire
  // carries only the spans), so a fixed placeholder id is fine.
  TraceContext ctx("shard_query");
  TraceContext* tp = trace ? &ctx : nullptr;
  // Any shard serves as the enumeration catalog (classes are
  // feature-derived and identical across shards AND replicas — the frozen-
  // catalog contract), so every replica enumerates the identical fragment
  // list and per-fragment maps align positionally across endpoints.
  {
    ScopedSpan span(tp, "enumerate");
    PIS_ASSIGN_OR_RETURN(result.fragments,
                         EnumerateIndexedQueryFragments(
                             index.shard(0), query,
                             options.max_query_fragments));
  }
  result.dists.resize(result.fragments.size());
  // Shard-outer so each requested shard's sweep is one contiguous trace
  // span; the per-fragment maps come out identical either way (shards own
  // disjoint gid spaces, so the merge is a plain union).
  for (int s : shards) {
    ScopedSpan span(tp, "range_queries:shard" + std::to_string(s));
    for (size_t fi = 0; fi < result.fragments.size(); ++fi) {
      PIS_RETURN_NOT_OK(index.MinDistances(s, result.fragments[fi].prepared,
                                           sigma, &result.dists[fi]));
    }
  }
  if (tp != nullptr) result.spans = tp->TakeSpans();
  return result;
}

Result<std::vector<int>> RunShardVerify(const EngineHost::Snapshot& snap,
                                        const std::vector<int>& ids,
                                        const Graph& query, double sigma,
                                        const PisOptions& options, bool trace,
                                        std::vector<TraceSpan>* spans_out) {
  std::vector<int> candidates = ids;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (int gid : candidates) {
    // A dead or absent slot holds no graph here (absent foreign-write slots
    // are materialized as empty placeholders) — verifying it would silently
    // compare against the wrong bytes. A replica that is merely behind on
    // this gid reports NotFound and the router fails over.
    if (!snap.index->IsLive(gid)) {
      return Status::NotFound("graph " + std::to_string(gid) +
                              " is not live on this replica");
    }
  }
  TraceContext ctx("shard_verify");
  TraceContext* tp = trace && spans_out != nullptr ? &ctx : nullptr;
  VerifyResult verified;
  {
    ScopedSpan span(tp, "verify:" + std::to_string(candidates.size()) +
                            "_candidates");
    verified = VerifyCandidates(*snap.db, query, candidates,
                                snap.index->options().spec, sigma,
                                options.verify_threads);
  }
  if (tp != nullptr) {
    std::vector<TraceSpan> spans = tp->TakeSpans();
    spans_out->insert(spans_out->end(),
                      std::make_move_iterator(spans.begin()),
                      std::make_move_iterator(spans.end()));
  }
  return std::move(verified.answers);
}

ShardMeta CollectShardMeta(const EngineHost::Snapshot& snap,
                           const std::vector<int>& shards_owned) {
  const ShardedFragmentIndex& index = *snap.index;
  ShardMeta meta;
  meta.epoch = snap.epoch;
  meta.db_slots = index.db_size();
  meta.num_shards = index.num_shards();
  meta.shards_owned = shards_owned;
  if (meta.shards_owned.empty()) {
    for (int s = 0; s < meta.num_shards; ++s) meta.shards_owned.push_back(s);
  }
  meta.routing.reserve(meta.db_slots);
  for (int gid = 0; gid < meta.db_slots; ++gid) {
    meta.routing.push_back(index.shard_of(gid));
  }
  meta.tombstones.assign(index.tombstones().begin(),
                         index.tombstones().end());
  std::sort(meta.tombstones.begin(), meta.tombstones.end());
  return meta;
}

void ShardMetaToJson(const ShardMeta& meta, JsonValue* reply) {
  reply->Set("epoch", meta.epoch);
  reply->Set("db_slots", meta.db_slots);
  reply->Set("num_shards", meta.num_shards);
  reply->Set("shards_owned", IntArrayToJson(meta.shards_owned));
  reply->Set("routing", IntArrayToJson(meta.routing));
  reply->Set("tombstones", IntArrayToJson(meta.tombstones));
}

Result<ShardMeta> ShardMetaFromJson(const JsonValue& reply) {
  ShardMeta meta;
  PIS_ASSIGN_OR_RETURN(meta.epoch, EpochFromJson(reply));
  PIS_ASSIGN_OR_RETURN(meta.db_slots,
                       AsStrictInt(Member(reply, "db_slots"), "db_slots"));
  PIS_ASSIGN_OR_RETURN(meta.num_shards,
                       AsStrictInt(Member(reply, "num_shards"), "num_shards"));
  PIS_ASSIGN_OR_RETURN(meta.shards_owned,
                       ReadIntArray(reply, "shards_owned"));
  PIS_ASSIGN_OR_RETURN(meta.routing, ReadIntArray(reply, "routing"));
  PIS_ASSIGN_OR_RETURN(meta.tombstones, ReadIntArray(reply, "tombstones"));
  if (meta.db_slots < 0 || meta.num_shards < 1 ||
      static_cast<int>(meta.routing.size()) != meta.db_slots) {
    return Status::InvalidArgument("meta reply is structurally inconsistent");
  }
  for (int s : meta.routing) {
    if (s < -1 || s >= meta.num_shards) {
      return Status::InvalidArgument("meta routing entry out of range");
    }
  }
  return meta;
}

void ShardQueryResultToJson(const ShardQueryResult& result, JsonValue* reply) {
  reply->Set("epoch", result.epoch);
  JsonValue fragments = JsonValue::Array();
  for (const QueryFragment& qf : result.fragments) {
    JsonValue fragment = JsonValue::Object();
    fragment.Set("class_id", qf.prepared.class_id);
    JsonValue vertices = JsonValue::Array();
    for (VertexId v : qf.vertices) vertices.Push(v);
    fragment.Set("vertices", std::move(vertices));
    fragments.Push(std::move(fragment));
  }
  reply->Set("fragments", std::move(fragments));
  JsonValue dists = JsonValue::Array();
  for (const std::unordered_map<int, double>& map : result.dists) {
    // Sorted pairs so the reply bytes are deterministic (map iteration
    // order is not); the router re-keys into a map either way.
    std::vector<std::pair<int, double>> pairs(map.begin(), map.end());
    std::sort(pairs.begin(), pairs.end());
    JsonValue entries = JsonValue::Array();
    for (const auto& [gid, d] : pairs) {
      JsonValue pair = JsonValue::Array();
      pair.Push(gid);
      pair.Push(d);
      entries.Push(std::move(pair));
    }
    dists.Push(std::move(entries));
  }
  reply->Set("dists", std::move(dists));
  // Omitted entirely when untraced, keeping untraced reply bytes identical
  // to the pre-tracing protocol.
  if (!result.spans.empty()) {
    reply->Set("spans", TraceSpan::ListToJson(result.spans));
  }
}

Result<ShardQueryResult> ShardQueryResultFromJson(const JsonValue& reply) {
  ShardQueryResult result;
  PIS_ASSIGN_OR_RETURN(result.epoch, EpochFromJson(reply));
  const JsonValue* fragments = reply.Find("fragments");
  const JsonValue* dists = reply.Find("dists");
  if (fragments == nullptr || !fragments->is_array() || dists == nullptr ||
      !dists->is_array() || fragments->size() != dists->size()) {
    return Status::InvalidArgument(
        "shard_query reply is missing aligned fragments/dists arrays");
  }
  result.fragments.reserve(fragments->size());
  for (const JsonValue& item : fragments->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("fragment entry must be an object");
    }
    QueryFragment qf;
    PIS_ASSIGN_OR_RETURN(qf.prepared.class_id,
                         AsStrictInt(Member(item, "class_id"), "class_id"));
    PIS_ASSIGN_OR_RETURN(std::vector<int> vertices,
                         ReadIntArray(item, "vertices"));
    qf.vertices.assign(vertices.begin(), vertices.end());
    result.fragments.push_back(std::move(qf));
  }
  result.dists.resize(result.fragments.size());
  for (size_t fi = 0; fi < dists->size(); ++fi) {
    const JsonValue& entries = dists->at(fi);
    if (!entries.is_array()) {
      return Status::InvalidArgument("dists entry must be an array");
    }
    for (const JsonValue& pair : entries.items()) {
      if (!pair.is_array() || pair.size() != 2 || !pair.at(1).is_number()) {
        return Status::InvalidArgument("dist pair must be [gid, distance]");
      }
      PIS_ASSIGN_OR_RETURN(int gid, AsStrictInt(pair.at(0), "dist gid"));
      result.dists[fi].emplace(gid, pair.at(1).AsNumber());
    }
  }
  if (const JsonValue* spans = reply.Find("spans"); spans != nullptr) {
    PIS_ASSIGN_OR_RETURN(result.spans, TraceSpan::ListFromJson(*spans));
  }
  return result;
}

Result<std::vector<int>> ShardVerifyAnswersFromJson(const JsonValue& reply) {
  PIS_ASSIGN_OR_RETURN(std::vector<int> answers,
                       ReadIntArray(reply, "answers"));
  for (int gid : answers) {
    if (gid < 0) {
      return Status::InvalidArgument("shard_verify answer " +
                                     std::to_string(gid) +
                                     " is not a graph id");
    }
  }
  return answers;
}

}  // namespace pis
