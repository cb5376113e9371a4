#include "server/cluster_engine.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/filter_impl.h"
#include "core/shard_filter.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pis {

namespace {

Result<std::pair<std::string, int>> SplitEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument("endpoint \"" + text +
                                   "\" is not host:port");
  }
  char* end = nullptr;
  const long port = std::strtol(text.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return Status::InvalidArgument("endpoint \"" + text +
                                   "\" has an invalid port");
  }
  return std::make_pair(text.substr(0, colon), static_cast<int>(port));
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterManifest

Result<ClusterManifest> ClusterManifest::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("manifest must be a JSON object");
  }
  const JsonValue* shards = json.Find("shards");
  if (shards == nullptr || !shards->is_array() || shards->size() == 0) {
    return Status::InvalidArgument(
        "manifest needs a non-empty \"shards\" array");
  }
  ClusterManifest manifest;
  manifest.shards.reserve(shards->size());
  for (const JsonValue& entry : shards->items()) {
    const JsonValue* replicas =
        entry.is_object() ? entry.Find("replicas") : nullptr;
    if (replicas == nullptr || !replicas->is_array() ||
        replicas->size() == 0) {
      return Status::InvalidArgument(
          "every manifest shard needs a non-empty \"replicas\" array");
    }
    Shard shard;
    for (const JsonValue& replica : replicas->items()) {
      if (!replica.is_string()) {
        return Status::InvalidArgument("replica endpoints must be strings");
      }
      PIS_RETURN_NOT_OK(SplitEndpoint(replica.AsString()).status());
      shard.replicas.push_back(replica.AsString());
    }
    manifest.shards.push_back(std::move(shard));
  }
  return manifest;
}

Result<ClusterManifest> ClusterManifest::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open manifest " + path);
  std::ostringstream text;
  text << in.rdbuf();
  PIS_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text.str()));
  return FromJson(json);
}

// ---------------------------------------------------------------------------
// Construction

ClusterEngine::ClusterEngine(
    std::vector<std::unique_ptr<ShardBackend>> backends,
    std::vector<std::vector<int>> shards_of,
    const ClusterEngineOptions& options)
    : options_(options), metrics_registry_(options.metrics) {
  PIS_CHECK(backends.size() == shards_of.size());
  PIS_CHECK(!backends.empty());
  int num_shards = 0;
  for (const std::vector<int>& shards : shards_of) {
    for (int s : shards) num_shards = std::max(num_shards, s + 1);
  }
  shard_endpoints_.resize(num_shards);
  endpoints_.reserve(backends.size());
  for (size_t e = 0; e < backends.size(); ++e) {
    auto ep = std::make_unique<Endpoint>();
    ep->backend = std::move(backends[e]);
    ep->shards = std::move(shards_of[e]);
    std::sort(ep->shards.begin(), ep->shards.end());
    ep->shards.erase(std::unique(ep->shards.begin(), ep->shards.end()),
                     ep->shards.end());
    for (int s : ep->shards) {
      shard_endpoints_[s].push_back(static_cast<int>(e));
    }
    endpoints_.push_back(std::move(ep));
  }
  for (int s = 0; s < num_shards; ++s) {
    PIS_CHECK(!shard_endpoints_[s].empty());  // manifest must cover all shards
  }
  MetricsRegistry* reg = metrics_registry_.get();
  metrics_.failovers = reg->GetCounter(
      "pis_cluster_failovers_total",
      "Query-path retries on another replica after a failed attempt.");
  metrics_.catchup_dropped = reg->GetCounter(
      "pis_cluster_catchup_dropped_total",
      "Catch-up ops dropped after an application rejection (permanent "
      "replica divergence).");
  for (std::unique_ptr<Endpoint>& ep : endpoints_) {
    const std::string& name = ep->backend->name();
    ep->breaker_open_gauge = reg->GetGauge(
        "pis_cluster_breaker_open",
        "1 while the endpoint's circuit breaker is open (sticky until a "
        "success closes it).",
        {{"endpoint", name}});
    ep->breaker_opened = reg->GetCounter(
        "pis_cluster_breaker_transitions_total",
        "Circuit-breaker state transitions per endpoint.",
        {{"endpoint", name}, {"to", "open"}});
    ep->breaker_closed = reg->GetCounter(
        "pis_cluster_breaker_transitions_total",
        "Circuit-breaker state transitions per endpoint.",
        {{"endpoint", name}, {"to", "closed"}});
    ep->catchup_depth = reg->GetGauge(
        "pis_cluster_catchup_pending",
        "Queued catch-up ops awaiting ordered replay on the endpoint.",
        {{"endpoint", name}});
    ep->quarantined_gauge = reg->GetGauge(
        "pis_cluster_replica_quarantined",
        "1 once the replica rejected a write and was taken out of reads.",
        {{"endpoint", name}});
    ep->backend->EnableMetrics(reg);
  }
}

ClusterEngine::~ClusterEngine() { StopHealthThread(); }

Result<std::unique_ptr<ClusterEngine>> ClusterEngine::Connect(
    const ClusterManifest& manifest, const ClusterEngineOptions& options) {
  std::unordered_map<std::string, size_t> endpoint_index;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  std::vector<std::vector<int>> shards_of;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    for (const std::string& replica : manifest.shards[s].replicas) {
      auto [it, inserted] =
          endpoint_index.emplace(replica, backends.size());
      if (inserted) {
        PIS_ASSIGN_OR_RETURN(auto host_port, SplitEndpoint(replica));
        backends.push_back(std::make_unique<RemoteShardBackend>(
            host_port.first, host_port.second, options.timeout_ms));
        shards_of.emplace_back();
      }
      shards_of[it->second].push_back(static_cast<int>(s));
    }
  }
  auto engine = std::make_unique<ClusterEngine>(
      std::move(backends), std::move(shards_of), options);
  PIS_RETURN_NOT_OK(engine->Bootstrap());
  return engine;
}

// ---------------------------------------------------------------------------
// Health / breaker / catch-up

bool ClusterEngine::Readable(Endpoint& ep) {
  {
    MutexLock lock(&ep.health_mu);
    if (ep.consecutive_failures >= options_.breaker_threshold &&
        std::chrono::steady_clock::now() < ep.open_until) {
      return false;  // breaker open (half-opens once open_until passes)
    }
  }
  MutexLock lock(&ep.send_mu);
  // Queued catch-up ops mean this replica is behind acked state: reading
  // from it could miss an acknowledged write. A quarantined one misses a
  // write for good.
  return ep.pending.empty() && !ep.quarantined;
}

void ClusterEngine::Quarantine(Endpoint& ep, int gid,
                               const Status& rejection) {
  PIS_LOG(Error) << ep.backend->name() << " rejected write (gid " << gid
                 << "), quarantining it: " << rejection.ToString();
  ep.quarantined = true;
  ep.quarantined_gauge->Set(1);
}

void ClusterEngine::NoteTransportFailure(Endpoint& ep) {
  MutexLock lock(&ep.health_mu);
  ++ep.consecutive_failures;
  if (ep.consecutive_failures >= options_.breaker_threshold) {
    ep.open_until = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.breaker_open_ms);
    // Exactly the first crossing since the last success is a transition;
    // later failures merely extend the open window.
    if (ep.consecutive_failures == options_.breaker_threshold) {
      ep.breaker_opened->Inc();
    }
    ep.breaker_open_gauge->Set(1);
  }
}

void ClusterEngine::NoteTransportSuccess(Endpoint& ep) {
  MutexLock lock(&ep.health_mu);
  if (ep.consecutive_failures >= options_.breaker_threshold) {
    ep.breaker_closed->Inc();
  }
  ep.breaker_open_gauge->Set(0);
  ep.consecutive_failures = 0;
}

void ClusterEngine::DrainPending(Endpoint& ep) {
  MutexLock lock(&ep.send_mu);
  while (!ep.pending.empty()) {
    const PendingOp& op = ep.pending.front();
    Status applied = Status::OK();
    if (op.is_add) {
      applied = ep.backend->ShardAdd(op.gid, op.shard, op.graph).status();
    } else {
      applied = ep.backend->ShardRemove(op.gid).status();
    }
    if (!applied.ok()) {
      if (IsTransportError(applied)) {
        NoteTransportFailure(ep);
        ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
        return;  // still down; keep the queue, retry next probe
      }
      // An application error will repeat on every retry — dropping it is
      // the only way the queue ever drains. The replica has permanently
      // diverged (e.g. misconfigured ownership), so it leaves the reads.
      Quarantine(ep, op.gid, applied);
      metrics_.catchup_dropped->Inc();
    }
    ep.pending.pop_front();
  }
  ep.catchup_depth->Set(0);
}

void ClusterEngine::ProbeOnce() {
  for (std::unique_ptr<Endpoint>& ep : endpoints_) {
    {
      MutexLock lock(&ep->health_mu);
      if (ep->consecutive_failures >= options_.breaker_threshold &&
          std::chrono::steady_clock::now() < ep->open_until) {
        continue;  // breaker open: don't hammer a dead endpoint
      }
    }
    Result<uint64_t> health = ep->backend->Health();
    if (!health.ok()) {
      NoteTransportFailure(*ep);
      continue;
    }
    NoteTransportSuccess(*ep);
    DrainPending(*ep);
  }
}

void ClusterEngine::StartHealthThread() {
  MutexLock lock(&health_mu_);
  if (health_thread_.joinable()) return;
  health_stop_ = false;
  health_thread_ = std::thread([this] { HealthLoop(); });
}

void ClusterEngine::StopHealthThread() {
  std::thread to_join;
  {
    MutexLock lock(&health_mu_);
    if (!health_thread_.joinable()) return;
    health_stop_ = true;
    health_cv_.NotifyAll();
    to_join = std::move(health_thread_);
  }
  to_join.join();
}

void ClusterEngine::HealthLoop() {
  const auto interval =
      std::chrono::milliseconds(std::max(1, options_.health_interval_ms));
  while (true) {
    {
      MutexLock lock(&health_mu_);
      if (health_stop_) return;
      health_cv_.WaitFor(&health_mu_, interval);
      if (health_stop_) return;
    }
    ProbeOnce();
  }
}

// ---------------------------------------------------------------------------
// Bootstrap

Status ClusterEngine::Bootstrap() {
  MutexLock writer(&writer_mu_);
  bool have_meta = false;
  ShardMeta best;
  Status last_error =
      Status::Unavailable("no replica endpoints configured");
  for (std::unique_ptr<Endpoint>& ep : endpoints_) {
    Result<ShardMeta> meta = ep->backend->Meta();
    if (!meta.ok()) {
      last_error = meta.status();
      if (IsTransportError(meta.status())) NoteTransportFailure(*ep);
      continue;
    }
    NoteTransportSuccess(*ep);
    if (meta.value().num_shards != num_shards()) {
      return Status::InvalidArgument(
          ep->backend->name() + " serves " +
          std::to_string(meta.value().num_shards) +
          " shards but the manifest describes " +
          std::to_string(num_shards()));
    }
    if (!have_meta || meta.value().epoch > best.epoch) {
      best = meta.MoveValue();
      have_meta = true;
    }
  }
  if (!have_meta) {
    return Status::Unavailable("no replica reachable for bootstrap: " +
                               last_error.ToString());
  }
  MutexLock state(&state_mu_);
  db_slots_ = best.db_slots;
  routing_ = std::move(best.routing);
  tombstones_ =
      std::unordered_set<int>(best.tombstones.begin(), best.tombstones.end());
  live_per_shard_.assign(num_shards(), 0);
  for (int gid = 0; gid < db_slots_; ++gid) {
    const int s = routing_[gid];
    if (s >= 0 && tombstones_.count(gid) == 0) ++live_per_shard_[s];
  }
  if (best.epoch > epoch_) epoch_ = best.epoch;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query path

Status ClusterEngine::PickCover(const std::vector<bool>& answered,
                                const std::unordered_set<int>& exclude,
                                std::vector<int>* cover) {
  cover->assign(num_shards(), -1);
  for (int s = 0; s < num_shards(); ++s) {
    if (answered[s]) continue;
    for (int e : shard_endpoints_[s]) {
      if (exclude.count(e) != 0) continue;
      if (!Readable(*endpoints_[e])) continue;
      (*cover)[s] = e;
      break;
    }
    if ((*cover)[s] < 0) {
      return Status::Unavailable("no healthy replica serves shard " +
                                 std::to_string(s));
    }
  }
  return Status::OK();
}

Result<SearchResult> ClusterEngine::Search(const Graph& query) {
  return Search(query, options_.options.sigma, nullptr);
}

Result<SearchResult> ClusterEngine::Search(const Graph& query, double sigma) {
  return Search(query, sigma, nullptr);
}

Result<SearchResult> ClusterEngine::Search(const Graph& query, double sigma,
                                           TraceContext* trace) {
  Timer filter_timer;

  // ---- Round 1: shard_filter over a healthy cover, with failover (a
  // transport failure re-sends only the failed groups' shards; the replies
  // of the groups that answered are kept) ----
  FilterResult filter;
  std::vector<ShardFilterResult> shards(num_shards());
  int64_t live = 0;
  std::vector<bool> answered(num_shards(), false);
  std::unordered_set<int> exclude;
  bool first_reply = true;
  for (;;) {
    std::vector<int> cover;
    PIS_RETURN_NOT_OK(PickCover(answered, exclude, &cover));
    // Group the unanswered shards per endpoint: one shard_filter round
    // trip asks an endpoint for every such shard it covers.
    std::vector<std::pair<int, ShardFilterRequest>> groups;  // endpoint, req
    for (int s = 0; s < num_shards(); ++s) {
      const int e = cover[s];
      if (e < 0) continue;
      auto it = std::find_if(groups.begin(), groups.end(),
                             [e](const auto& g) { return g.first == e; });
      if (it == groups.end()) {
        groups.emplace_back(e, ShardFilterRequest{query, {s}, sigma,
                                                  trace != nullptr});
      } else {
        it->second.shards.push_back(s);
      }
    }
    if (groups.empty()) break;
    std::vector<Result<ShardFilterReply>> replies(
        groups.size(), Status::Internal("shard_filter not run"));
    for (size_t g = 0; g < groups.size(); ++g) {
      const double start_ms = trace != nullptr ? trace->ElapsedMs() : 0;
      ShardBackend& backend = *endpoints_[groups[g].first]->backend;
      replies[g] = backend.ShardFilter(groups[g].second);
      if (trace != nullptr) {
        // The replica's own stage spans (remote clock domain) graft under
        // this round-trip span; a failed attempt records with no children.
        std::vector<TraceSpan> children;
        if (replies[g].ok()) children = std::move(replies[g].value().spans);
        trace->RecordSince("shard_filter:" + backend.name(), start_ms,
                           std::move(children));
      }
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      if (replies[g].ok()) continue;
      if (IsTransportError(replies[g].status())) {
        NoteTransportFailure(*endpoints_[groups[g].first]);
        exclude.insert(groups[g].first);
        metrics_.failovers->Inc();
        continue;
      }
      // Application error from a healthy replica (e.g. "query graph is
      // empty") — the single-process engine would fail identically.
      return replies[g].status();
    }

    // Every reply must enumerate the same catalog and answer for exactly
    // the shards it was asked about.
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!replies[g].ok()) continue;
      ShardFilterReply& reply = replies[g].value();
      const std::string& name = endpoints_[groups[g].first]->backend->name();
      if (first_reply) {
        filter.fragments = std::move(reply.fragments);
        first_reply = false;
      } else {
        PIS_RETURN_NOT_OK(
            CheckSameCatalog(filter.fragments, reply.fragments, name));
      }
      if (reply.shards != groups[g].second.shards) {
        return Status::Internal(name + " answered shard_filter for shards " +
                                "it was not asked about");
      }
      for (size_t i = 0; i < reply.shards.size(); ++i) {
        live += reply.results[i].live;
        answered[reply.shards[i]] = true;
        shards[reply.shards[i]] = std::move(reply.results[i]);
      }
    }
  }
  if (live > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("replicas report more live graphs than "
                                   "graph ids can number");
  }
  const double round1_seconds = filter_timer.Seconds();

  // ---- Plan: the global step of the filter both engines share ----
  {
    ScopedSpan plan_span(trace, "plan");
    PisOptions plan_options = options_.options;
    plan_options.sigma = sigma;
    PlanFilter(shards, plan_options, &filter);
  }
  filter.stats.pass1_seconds =
      round1_seconds + filter.stats.selectivity_seconds;
  filter.stats.filter_seconds = filter_timer.Seconds();

  // ---- Round 2: shard_refine on every shard, each on its first readable
  // replica (failover is per shard: a replica death mid-round only re-sends
  // that shard's request) ----
  Timer verify_timer;
  std::vector<int> classes;
  for (int fi : filter.partition) {
    classes.push_back(filter.fragments[fi].prepared.class_id);
  }
  SearchResult result;
  result.stats = filter.stats;
  for (int s = 0; s < num_shards(); ++s) {
    const ShardRefineRequest request{
        query, s, filter.partition, classes, std::move(shards[s].survivors),
        sigma, trace != nullptr};
    std::unordered_set<int> tried;
    Status last = Status::Unavailable("no endpoint tried");
    for (;;) {
      int chosen = -1;
      for (int e : shard_endpoints_[s]) {
        if (tried.count(e) != 0) continue;
        if (!Readable(*endpoints_[e])) continue;
        chosen = e;
        break;
      }
      if (chosen < 0) {
        return Status::Unavailable("no healthy replica can refine shard " +
                                   std::to_string(s) + ": " + last.ToString());
      }
      const double start_ms = trace != nullptr ? trace->ElapsedMs() : 0;
      ShardBackend& backend = *endpoints_[chosen]->backend;
      Result<ShardRefineReply> reply = backend.ShardRefine(request);
      if (reply.ok()) {
        ShardRefineReply& r = reply.value();
        if (r.partition_candidates >
            static_cast<int>(request.survivors.size())) {
          return Status::InvalidArgument(
              "shard_refine reply from " + backend.name() +
              " counts more partition candidates than survivors");
        }
        // Refining only removes survivors; the decoder already holds the
        // answers inside the candidates, and both lists are ascending.
        if (!std::includes(request.survivors.begin(), request.survivors.end(),
                           r.candidates.begin(), r.candidates.end())) {
          return Status::InvalidArgument(
              "shard_refine reply from " + backend.name() +
              " names candidates that were not sent as survivors");
        }
        NoteTransportSuccess(*endpoints_[chosen]);
        if (trace != nullptr) {
          trace->RecordSince(
              "shard_refine:shard" + std::to_string(s) + "@" + backend.name(),
              start_ms, std::move(r.spans));
        }
        result.stats.candidates_after_partition += r.partition_candidates;
        result.candidates.insert(result.candidates.end(), r.candidates.begin(),
                                 r.candidates.end());
        result.answers.insert(result.answers.end(), r.answers.begin(),
                              r.answers.end());
        break;
      }
      last = reply.status();
      if (IsTransportError(last)) {
        NoteTransportFailure(*endpoints_[chosen]);
      } else if (last.code() != StatusCode::kNotFound) {
        return last;  // real application error: surface it
      }
      // Unreachable, or behind on a survivor (e.g. restarted from an older
      // checkpoint): fail over rather than answer from stale state.
      tried.insert(chosen);
      metrics_.failovers->Inc();
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end());
  std::sort(result.answers.begin(), result.answers.end());
  result.stats.candidates_final = result.candidates.size();
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verify_timer.Seconds();
  return result;
}

BatchSearchResult ClusterEngine::SearchBatch(std::span<const Graph> queries,
                                             int num_threads) {
  return internal::RunSearchBatch(
      queries.size(), num_threads > 0 ? num_threads : HardwareThreads(),
      [this, queries](size_t i) { return Search(queries[i]); });
}

// ---------------------------------------------------------------------------
// Write path

int ClusterEngine::ReplicateOp(const PendingOp& op, uint64_t* max_epoch) {
  int acks = 0;
  for (int e : shard_endpoints_[op.shard]) {
    Endpoint& ep = *endpoints_[e];
    bool breaker_open = false;
    {
      MutexLock lock(&ep.health_mu);
      breaker_open =
          ep.consecutive_failures >= options_.breaker_threshold &&
          std::chrono::steady_clock::now() < ep.open_until;
    }
    MutexLock lock(&ep.send_mu);
    if (breaker_open || !ep.pending.empty()) {
      // Behind or unreachable: the op joins the ordered catch-up queue so
      // the replica applies the router's writes in commit order.
      ep.pending.push_back(op);
      ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
      continue;
    }
    Status applied = Status::OK();
    uint64_t epoch = 0;
    if (op.is_add) {
      Result<uint64_t> added = ep.backend->ShardAdd(op.gid, op.shard, op.graph);
      applied = added.status();
      if (added.ok()) epoch = added.value();
    } else {
      Result<ShardBackend::RemoveOutcome> removed =
          ep.backend->ShardRemove(op.gid);
      applied = removed.status();
      if (removed.ok()) epoch = removed.value().epoch;
    }
    if (applied.ok()) {
      NoteTransportSuccess(ep);
      *max_epoch = std::max(*max_epoch, epoch);
      ++acks;
    } else if (IsTransportError(applied)) {
      NoteTransportFailure(ep);
      ep.pending.push_back(op);
      ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
    } else {
      // Application rejection: retrying is pointless (it would fail the
      // same way forever and wedge the queue). This replica misses the op.
      Quarantine(ep, op.gid, applied);
    }
  }
  return acks;
}

Result<int> ClusterEngine::AddGraph(const Graph& g) {
  MutexLock writer(&writer_mu_);
  PendingOp op;
  op.is_add = true;
  op.graph = g;
  {
    MutexLock state(&state_mu_);
    // Placement mirrors ShardedFragmentIndex::AddGraph: least-loaded live
    // count, ties to the lowest shard id — so the cluster's routing table
    // replays to exactly the oracle's.
    op.shard = 0;
    for (int s = 1; s < num_shards(); ++s) {
      if (live_per_shard_[s] < live_per_shard_[op.shard]) op.shard = s;
    }
    op.gid = db_slots_;
  }
  uint64_t max_epoch = 0;
  const int acks = ReplicateOp(op, &max_epoch);
  {
    MutexLock state(&state_mu_);
    routing_.push_back(op.shard);
    ++db_slots_;
    ++live_per_shard_[op.shard];
    if (max_epoch > epoch_) epoch_ = max_epoch;
  }
  if (acks == 0) {
    // Ambiguous: a replica may have applied the op before dying, so the
    // slot stays committed (catch-up will converge every replica) but the
    // caller must not assume the write is readable yet.
    return Status::Unavailable(
        "write acknowledged by no replica of shard " +
        std::to_string(op.shard) + " (gid " + std::to_string(op.gid) +
        " committed for catch-up)");
  }
  return op.gid;
}

Status ClusterEngine::RemoveGraph(int gid) {
  MutexLock writer(&writer_mu_);
  PendingOp op;
  op.gid = gid;
  {
    MutexLock state(&state_mu_);
    if (gid < 0 || gid >= db_slots_ || tombstones_.count(gid) != 0 ||
        routing_[gid] < 0) {
      return Status::NotFound("graph " + std::to_string(gid) +
                              " is not live");
    }
    op.shard = routing_[gid];
  }
  uint64_t max_epoch = 0;
  const int acks = ReplicateOp(op, &max_epoch);
  {
    MutexLock state(&state_mu_);
    tombstones_.insert(gid);
    --live_per_shard_[op.shard];
    if (max_epoch > epoch_) epoch_ = max_epoch;
  }
  if (acks == 0) {
    return Status::Unavailable(
        "remove acknowledged by no replica of shard " +
        std::to_string(op.shard) + " (gid " + std::to_string(gid) +
        " committed for catch-up)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection

ClusterEngine::ClusterStats ClusterEngine::Stats() {
  ClusterStats stats;
  {
    MutexLock lock(&state_mu_);
    stats.epoch = epoch_;
    stats.db_slots = db_slots_;
    stats.num_shards = num_shards();
    for (int s = 0; s < num_shards(); ++s) stats.live += live_per_shard_[s];
  }
  for (std::unique_ptr<Endpoint>& ep : endpoints_) {
    EndpointStatus status;
    status.name = ep->backend->name();
    status.shards = ep->shards;
    {
      MutexLock lock(&ep->health_mu);
      status.consecutive_failures = ep->consecutive_failures;
      status.breaker_open =
          ep->consecutive_failures >= options_.breaker_threshold &&
          std::chrono::steady_clock::now() < ep->open_until;
    }
    {
      MutexLock lock(&ep->send_mu);
      status.pending_ops = ep->pending.size();
      status.quarantined = ep->quarantined;
    }
    stats.endpoints.push_back(std::move(status));
  }
  return stats;
}

JsonValue ClusterEngine::StatsJson() {
  const ClusterStats stats = Stats();
  JsonValue json = JsonValue::Object();
  json.Set("epoch", stats.epoch);
  json.Set("db_slots", stats.db_slots);
  json.Set("live", stats.live);
  json.Set("num_shards", stats.num_shards);
  JsonValue endpoints = JsonValue::Array();
  for (const EndpointStatus& ep : stats.endpoints) {
    JsonValue entry = JsonValue::Object();
    entry.Set("endpoint", ep.name);
    JsonValue shards = JsonValue::Array();
    for (int s : ep.shards) shards.Push(s);
    entry.Set("shards", std::move(shards));
    entry.Set("breaker_open", ep.breaker_open);
    entry.Set("quarantined", ep.quarantined);
    entry.Set("consecutive_failures", ep.consecutive_failures);
    entry.Set("pending_ops", static_cast<uint64_t>(ep.pending_ops));
    endpoints.Push(std::move(entry));
  }
  json.Set("endpoints", std::move(endpoints));
  return json;
}

}  // namespace pis
