#include "server/shard_ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "core/verifier.h"
#include "graph/io.h"
#include "server/line_server.h"

namespace pis {

namespace {

Result<std::vector<int>> ReadIntArray(const JsonValue& reply, const char* key) {
  const JsonValue* array = reply.Find(key);
  if (array == nullptr || !array->is_array()) {
    return Status::InvalidArgument(std::string("missing array \"") + key +
                                   "\"");
  }
  std::vector<int> out;
  out.reserve(array->size());
  for (const JsonValue& item : array->items()) {
    PIS_ASSIGN_OR_RETURN(int value, AsStrictInt(item, key));
    out.push_back(value);
  }
  return out;
}

/// Graph or shard ids: non-negative, strictly ascending (so no duplicates).
Result<std::vector<int>> ReadAscendingIds(const JsonValue& object,
                                          const char* key) {
  PIS_ASSIGN_OR_RETURN(std::vector<int> ids, ReadIntArray(object, key));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || (i > 0 && ids[i] <= ids[i - 1])) {
      return Status::InvalidArgument(
          std::string("\"") + key +
          "\" must hold strictly ascending non-negative ids");
    }
  }
  return ids;
}

JsonValue IntArrayToJson(const std::vector<int>& values) {
  JsonValue array = JsonValue::Array();
  for (int v : values) array.Push(v);
  return array;
}

Result<double> ReadSigma(const JsonValue& request) {
  const JsonValue& sigma = Member(request, "sigma");
  if (!sigma.is_number() || !std::isfinite(sigma.AsNumber()) ||
      sigma.AsNumber() < 0) {
    return Status::InvalidArgument("request needs a number \"sigma\" >= 0");
  }
  return sigma.AsNumber();
}

JsonValue HistogramToJson(const DistanceHistogram& histogram) {
  JsonValue entries = JsonValue::Array();
  for (const auto& [d, count] : histogram) {
    JsonValue pair = JsonValue::Array();
    pair.Push(d);
    pair.Push(count);
    entries.Push(std::move(pair));
  }
  return entries;
}

Result<DistanceHistogram> HistogramFromJson(const JsonValue& entries) {
  if (!entries.is_array()) {
    return Status::InvalidArgument("a histogram must be an array");
  }
  DistanceHistogram histogram;
  for (const JsonValue& pair : entries.items()) {
    if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_number()) {
      return Status::InvalidArgument(
          "histogram entries must be [distance, count]");
    }
    const double d = pair.at(0).AsNumber();
    if (!std::isfinite(d) || d < 0 ||
        (!histogram.empty() && d <= histogram.back().first)) {
      return Status::InvalidArgument(
          "histogram distances must be finite, non-negative and strictly "
          "ascending");
    }
    PIS_ASSIGN_OR_RETURN(int count, AsStrictInt(pair.at(1), "count"));
    if (count < 1) {
      return Status::InvalidArgument("histogram counts must be >= 1");
    }
    histogram.emplace_back(d, count);
  }
  return histogram;
}

/// Omitted when untraced, keeping untraced reply bytes trace-free.
void SpansToJson(const std::vector<TraceSpan>& spans, JsonValue* reply) {
  if (!spans.empty()) reply->Set("spans", TraceSpan::ListToJson(spans));
}

Result<std::vector<TraceSpan>> SpansFromJson(const JsonValue& reply) {
  const JsonValue* spans = reply.Find("spans");
  if (spans == nullptr) return std::vector<TraceSpan>{};
  return TraceSpan::ListFromJson(*spans);
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

Result<ShardFilterReply> RunShardFilter(const EngineHost::Snapshot& snap,
                                        const std::vector<int>& owned,
                                        const ShardFilterRequest& request,
                                        const PisOptions& options) {
  if (request.query.Empty()) {
    // The same rejection PisEngine issues, so a router fanning this out
    // propagates an error identical to the single-process engine's.
    return Status::InvalidArgument("query graph is empty");
  }
  const ShardedFragmentIndex& index = *snap.index;
  PIS_RETURN_NOT_OK(
      CheckShardsOwned(request.shards, owned, index.num_shards()));
  ShardFilterReply reply;
  reply.epoch = snap.epoch;
  reply.shards = request.shards;
  // Tracing is request-scoped: the id never leaves this function (the wire
  // carries only the spans), so a fixed placeholder id is fine.
  TraceContext ctx("shard_filter");
  TraceContext* tp = request.trace ? &ctx : nullptr;
  {
    // Any shard serves as the enumeration catalog (classes are
    // feature-derived and identical across shards AND replicas).
    ScopedSpan span(tp, "enumerate");
    PIS_ASSIGN_OR_RETURN(reply.fragments,
                         EnumerateIndexedQueryFragments(
                             index.shard(0), request.query,
                             options.max_query_fragments));
  }
  reply.results.resize(request.shards.size());
  for (size_t i = 0; i < request.shards.size(); ++i) {
    const int s = request.shards[i];
    ScopedSpan span(tp, "filter:shard" + std::to_string(s));
    PIS_RETURN_NOT_OK(ShardFilter(index, s, reply.fragments, request.sigma,
                                  &reply.results[i]));
  }
  if (tp != nullptr) reply.spans = tp->TakeSpans();
  return reply;
}

Result<ShardRefineReply> RunShardRefine(const EngineHost::Snapshot& snap,
                                        const std::vector<int>& owned,
                                        const ShardRefineRequest& request,
                                        const PisOptions& options) {
  if (request.query.Empty()) {
    return Status::InvalidArgument("query graph is empty");
  }
  const ShardedFragmentIndex& index = *snap.index;
  PIS_RETURN_NOT_OK(CheckShardsOwned({request.shard}, owned,
                                     index.num_shards()));
  const std::vector<int>& survivors = request.survivors;
  for (size_t i = 0; i < survivors.size(); ++i) {
    const int gid = survivors[i];
    if (i > 0 && gid <= survivors[i - 1]) {
      return Status::InvalidArgument("survivors must be strictly ascending");
    }
    // A dead or absent slot holds no graph here (absent foreign-write slots
    // are materialized as empty placeholders) — verifying it would silently
    // compare against the wrong bytes. A replica that is merely behind on
    // this gid reports NotFound and the router fails over.
    if (!index.IsLive(gid)) {
      return Status::NotFound("graph " + std::to_string(gid) +
                              " is not live on this replica");
    }
    if (index.shard_of(gid) != request.shard) {
      return Status::InvalidArgument(
          "graph " + std::to_string(gid) + " is not resident in shard " +
          std::to_string(request.shard));
    }
  }
  if (request.partition.size() != request.classes.size()) {
    return Status::InvalidArgument("partition and classes differ in length");
  }
  ShardRefineReply reply;
  reply.epoch = snap.epoch;
  TraceContext ctx("shard_refine");
  TraceContext* tp = request.trace ? &ctx : nullptr;
  std::vector<QueryFragment> fragments;
  if (!request.partition.empty()) {
    // Only the partition's prepared fragments are needed; re-enumerating
    // recovers them from the frozen catalog.
    ScopedSpan span(tp, "enumerate");
    PIS_ASSIGN_OR_RETURN(fragments,
                         EnumerateIndexedQueryFragments(
                             index.shard(0), request.query,
                             options.max_query_fragments));
  }
  for (size_t k = 0; k < request.partition.size(); ++k) {
    const int fi = request.partition[k];
    if (fi < 0 || fi >= static_cast<int>(fragments.size()) ||
        fragments[fi].prepared.class_id != request.classes[k]) {
      return Status::InvalidArgument(
          "partition does not match this replica's fragment catalog");
    }
  }
  {
    ScopedSpan span(tp, "refine");
    size_t partition_candidates = 0;
    PIS_RETURN_NOT_OK(ShardRefine(index, *snap.db, request.shard,
                                  request.query, fragments, request.partition,
                                  survivors, request.sigma, &reply.candidates,
                                  &partition_candidates));
    reply.partition_candidates = static_cast<int>(partition_candidates);
  }
  {
    ScopedSpan span(tp, "verify:" + std::to_string(reply.candidates.size()) +
                            "_candidates");
    reply.answers = VerifyCandidates(*snap.db, request.query,
                                     reply.candidates, index.options().spec,
                                     request.sigma)
                        .answers;
  }
  if (tp != nullptr) reply.spans = tp->TakeSpans();
  return reply;
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

Result<JsonValue> ServeShardOpOrError(EngineHost* host,
                                      const std::vector<int>& owned,
                                      const JsonValue& request) {
  const std::string op = request.GetStringOr("op", "");
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", true);
  if (op == "health") {
    const EngineHost::HostStats stats = host->Stats();
    reply.Set("status", "serving");
    reply.Set("epoch", stats.epoch);
    reply.Set("live", stats.live);
  } else if (op == "meta") {
    ShardMetaToJson(CollectShardMeta(*host->snapshot(), owned), &reply);
  } else if (op == "shard_filter") {
    PIS_ASSIGN_OR_RETURN(ShardFilterRequest decoded,
                         ShardFilterRequestFromJson(request));
    PIS_ASSIGN_OR_RETURN(ShardFilterReply result,
                         RunShardFilter(*host->snapshot(), owned, decoded,
                                        host->options()));
    ShardFilterReplyToJson(result, &reply);
  } else if (op == "shard_refine") {
    PIS_ASSIGN_OR_RETURN(ShardRefineRequest decoded,
                         ShardRefineRequestFromJson(request));
    PIS_ASSIGN_OR_RETURN(ShardRefineReply result,
                         RunShardRefine(*host->snapshot(), owned, decoded,
                                        host->options()));
    ShardRefineReplyToJson(result, &reply);
  } else if (op == "shard_add") {
    PIS_ASSIGN_OR_RETURN(int gid, ReadNonNegative(request, "gid"));
    PIS_ASSIGN_OR_RETURN(int shard, ReadNonNegative(request, "shard"));
    PIS_RETURN_NOT_OK(CheckShardsOwned(
        {shard}, owned, host->snapshot()->index->num_shards()));
    PIS_ASSIGN_OR_RETURN(Graph graph, ReadGraph(request, "request"));
    uint64_t epoch = 0;
    PIS_RETURN_NOT_OK(host->AddGraphAt(gid, shard, graph, &epoch));
    reply.Set("epoch", epoch);
  } else if (op == "shard_remove") {
    PIS_ASSIGN_OR_RETURN(int gid, ReadNonNegative(request, "id"));
    uint64_t epoch = 0;
    Status removed = host->RemoveGraph(gid, &epoch);
    if (!removed.ok()) {
      // Idempotent replication semantics: a catch-up replay may re-deliver
      // a remove this replica already applied. Already-dead is success; a
      // gid this replica has never heard of is a real error (the router
      // replays per-endpoint ops in order, so the add always lands first).
      std::shared_ptr<const EngineHost::Snapshot> snap = host->snapshot();
      if (removed.code() != StatusCode::kNotFound ||
          gid >= snap->index->db_size() || snap->index->IsLive(gid)) {
        return removed;
      }
      epoch = snap->epoch;
    }
    reply.Set("epoch", epoch);
    reply.Set("applied", removed.ok());
  } else {
    return Status::InvalidArgument("unknown op \"" + op + "\"");
  }
  return reply;
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

JsonValue ServeShardOp(EngineHost* host, const std::vector<int>& owned,
                       const JsonValue& request) {
  Result<JsonValue> reply = ServeShardOpOrError(host, owned, request);
  return reply.ok() ? reply.MoveValue() : ErrorReply(reply.status());
}

Status CheckSameCatalog(const std::vector<QueryFragment>& want,
                        const std::vector<QueryFragment>& got,
                        const std::string& who) {
  if (got.size() != want.size()) {
    return Status::InvalidArgument(
        "fragment catalogs diverge across replicas (" + who + " enumerated " +
        std::to_string(got.size()) + " fragments, expected " +
        std::to_string(want.size()) + ")");
  }
  for (size_t fi = 0; fi < want.size(); ++fi) {
    if (got[fi].prepared.class_id != want[fi].prepared.class_id ||
        got[fi].vertices != want[fi].vertices) {
      return Status::InvalidArgument(
          "fragment catalogs diverge across replicas (" + who +
          " differs at fragment " + std::to_string(fi) + ")");
    }
  }
  return Status::OK();
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

JsonValue ShardFilterRequestToJson(const ShardFilterRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("op", "shard_filter");
  json.Set("graph", FormatGraph(request.query, 0));
  json.Set("shards", IntArrayToJson(request.shards));
  json.Set("sigma", request.sigma);
  if (request.trace) json.Set("trace", true);
  return json;
}

Result<ShardFilterRequest> ShardFilterRequestFromJson(
    const JsonValue& json) {
  ShardFilterRequest request;
  PIS_ASSIGN_OR_RETURN(request.query, ReadGraph(json, "request"));
  PIS_ASSIGN_OR_RETURN(request.shards, ReadAscendingIds(json, "shards"));
  if (request.shards.empty()) {
    return Status::InvalidArgument("shard_filter needs a non-empty \"shards\"");
  }
  PIS_ASSIGN_OR_RETURN(request.sigma, ReadSigma(json));
  request.trace = json.GetBoolOr("trace", false);
  return request;
}

void ShardFilterReplyToJson(const ShardFilterReply& result, JsonValue* reply) {
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
  JsonValue shards = JsonValue::Array();
  for (size_t i = 0; i < result.shards.size(); ++i) {
    const ShardFilterResult& r = result.results[i];
    JsonValue shard = JsonValue::Object();
    shard.Set("shard", result.shards[i]);
    shard.Set("live", r.live);
    shard.Set("survivors", IntArrayToJson(r.survivors));
    JsonValue histograms = JsonValue::Array();
    for (const DistanceHistogram& h : r.histograms) {
      histograms.Push(HistogramToJson(h));
    }
    shard.Set("histograms", std::move(histograms));
    shards.Push(std::move(shard));
  }
  reply->Set("shards", std::move(shards));
  SpansToJson(result.spans, reply);
}

Result<ShardFilterReply> ShardFilterReplyFromJson(const JsonValue& reply) {
  ShardFilterReply result;
  PIS_ASSIGN_OR_RETURN(result.epoch, EpochFromJson(reply));
  const JsonValue* fragments = reply.Find("fragments");
  const JsonValue* shards = reply.Find("shards");
  if (fragments == nullptr || !fragments->is_array() || shards == nullptr ||
      !shards->is_array()) {
    return Status::InvalidArgument(
        "shard_filter reply is missing its fragments/shards arrays");
  }
  for (const JsonValue& item : fragments->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("fragment entry must be an object");
    }
    QueryFragment qf;
    PIS_ASSIGN_OR_RETURN(qf.prepared.class_id,
                         ReadNonNegative(item, "class_id"));
    PIS_ASSIGN_OR_RETURN(std::vector<int> vertices,
                         ReadAscendingIds(item, "vertices"));
    qf.vertices.assign(vertices.begin(), vertices.end());
    result.fragments.push_back(std::move(qf));
  }
  for (const JsonValue& item : shards->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("shard entry must be an object");
    }
    PIS_ASSIGN_OR_RETURN(int shard, ReadNonNegative(item, "shard"));
    if (!result.shards.empty() && shard <= result.shards.back()) {
      return Status::InvalidArgument("reply shards must be ascending");
    }
    ShardFilterResult r;
    PIS_ASSIGN_OR_RETURN(r.live, ReadNonNegative(item, "live"));
    PIS_ASSIGN_OR_RETURN(r.survivors, ReadAscendingIds(item, "survivors"));
    const JsonValue* histograms = item.Find("histograms");
    if (histograms == nullptr || !histograms->is_array() ||
        histograms->size() != result.fragments.size()) {
      return Status::InvalidArgument(
          "shard_filter reply needs one histogram per fragment");
    }
    for (const JsonValue& entries : histograms->items()) {
      PIS_ASSIGN_OR_RETURN(DistanceHistogram h, HistogramFromJson(entries));
      int64_t found = 0;
      for (const auto& entry : h) found += entry.second;
      if (found > r.live) {
        return Status::InvalidArgument(
            "a histogram counts more graphs than the shard holds live");
      }
      r.histograms.push_back(std::move(h));
    }
    if (r.survivors.size() > static_cast<size_t>(r.live)) {
      return Status::InvalidArgument(
          "more survivors than the shard holds live graphs");
    }
    result.shards.push_back(shard);
    result.results.push_back(std::move(r));
  }
  PIS_ASSIGN_OR_RETURN(result.spans, SpansFromJson(reply));
  return result;
}

JsonValue ShardRefineRequestToJson(const ShardRefineRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("op", "shard_refine");
  json.Set("graph", FormatGraph(request.query, 0));
  json.Set("shard", request.shard);
  json.Set("partition", IntArrayToJson(request.partition));
  json.Set("classes", IntArrayToJson(request.classes));
  json.Set("survivors", IntArrayToJson(request.survivors));
  json.Set("sigma", request.sigma);
  if (request.trace) json.Set("trace", true);
  return json;
}

Result<ShardRefineRequest> ShardRefineRequestFromJson(
    const JsonValue& json) {
  ShardRefineRequest request;
  PIS_ASSIGN_OR_RETURN(request.query, ReadGraph(json, "request"));
  PIS_ASSIGN_OR_RETURN(request.shard, ReadNonNegative(json, "shard"));
  PIS_ASSIGN_OR_RETURN(request.partition, ReadIntArray(json, "partition"));
  PIS_ASSIGN_OR_RETURN(request.classes, ReadIntArray(json, "classes"));
  PIS_ASSIGN_OR_RETURN(request.survivors,
                       ReadAscendingIds(json, "survivors"));
  PIS_ASSIGN_OR_RETURN(request.sigma, ReadSigma(json));
  request.trace = json.GetBoolOr("trace", false);
  return request;
}

void ShardRefineReplyToJson(const ShardRefineReply& result, JsonValue* reply) {
  reply->Set("epoch", result.epoch);
  reply->Set("candidates", IntArrayToJson(result.candidates));
  reply->Set("partition_candidates", result.partition_candidates);
  reply->Set("answers", IntArrayToJson(result.answers));
  SpansToJson(result.spans, reply);
}

Result<ShardRefineReply> ShardRefineReplyFromJson(const JsonValue& reply) {
  ShardRefineReply result;
  PIS_ASSIGN_OR_RETURN(result.epoch, EpochFromJson(reply));
  PIS_ASSIGN_OR_RETURN(result.candidates,
                       ReadAscendingIds(reply, "candidates"));
  PIS_ASSIGN_OR_RETURN(result.partition_candidates,
                       ReadNonNegative(reply, "partition_candidates"));
  if (static_cast<size_t>(result.partition_candidates) <
      result.candidates.size()) {
    return Status::InvalidArgument(
        "shard_refine partition_candidates below its candidate count");
  }
  PIS_ASSIGN_OR_RETURN(result.answers, ReadAscendingIds(reply, "answers"));
  if (!std::includes(result.candidates.begin(), result.candidates.end(),
                     result.answers.begin(), result.answers.end())) {
    return Status::InvalidArgument(
        "shard_refine answers must be a subset of its candidates");
  }
  PIS_ASSIGN_OR_RETURN(result.spans, SpansFromJson(reply));
  return result;
}

}  // namespace pis
