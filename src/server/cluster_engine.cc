#include "server/cluster_engine.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/filter_impl.h"
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
    : options_(options) {
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
  if (options_.metrics != nullptr) {
    MetricsRegistry* reg = options_.metrics;
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
      ep->backend->EnableMetrics(reg);
    }
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
  // from it could miss an acknowledged write.
  return ep.pending.empty();
}

void ClusterEngine::NoteTransportFailure(Endpoint& ep) {
  MutexLock lock(&ep.health_mu);
  ++ep.consecutive_failures;
  if (ep.consecutive_failures >= options_.breaker_threshold) {
    ep.open_until = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.breaker_open_ms);
    // Exactly the first crossing since the last success is a transition;
    // later failures merely extend the open window.
    if (ep.consecutive_failures == options_.breaker_threshold &&
        ep.breaker_opened != nullptr) {
      ep.breaker_opened->Inc();
    }
    if (ep.breaker_open_gauge != nullptr) ep.breaker_open_gauge->Set(1);
  }
}

void ClusterEngine::NoteTransportSuccess(Endpoint& ep) {
  MutexLock lock(&ep.health_mu);
  if (ep.consecutive_failures >= options_.breaker_threshold &&
      ep.breaker_closed != nullptr) {
    ep.breaker_closed->Inc();
  }
  if (ep.breaker_open_gauge != nullptr) ep.breaker_open_gauge->Set(0);
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
        if (ep.catchup_depth != nullptr) {
          ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
        }
        return;  // still down; keep the queue, retry next probe
      }
      // An application error will repeat on every retry — dropping it is
      // the only way the queue ever drains. Loud, because it means this
      // replica has permanently diverged (misconfigured ownership).
      PIS_LOG(Error) << "dropping catch-up op (gid " << op.gid << ") for "
                     << ep.backend->name() << ": " << applied.ToString();
      if (metrics_.catchup_dropped != nullptr) metrics_.catchup_dropped->Inc();
    }
    ep.pending.pop_front();
  }
  if (ep.catchup_depth != nullptr) ep.catchup_depth->Set(0);
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

ClusterEngine::StatePin ClusterEngine::PinState() {
  MutexLock lock(&state_mu_);
  StatePin pin;
  pin.db_slots = db_slots_;
  pin.routing = routing_;
  pin.tombstones = tombstones_;
  return pin;
}

Status ClusterEngine::PickCover(const std::unordered_set<int>& exclude,
                                std::vector<int>* cover) {
  cover->assign(num_shards(), -1);
  for (int s = 0; s < num_shards(); ++s) {
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
  return Search(query, options_.options.sigma);
}

Result<SearchResult> ClusterEngine::Search(const Graph& query, double sigma) {
  QueryStats unused;
  return SearchInternal(query, sigma, &unused, nullptr);
}

Result<SearchResult> ClusterEngine::Search(const Graph& query, double sigma,
                                           TraceContext* trace) {
  QueryStats unused;
  return SearchInternal(query, sigma, &unused, trace);
}

Result<SearchResult> ClusterEngine::SearchInternal(const Graph& query,
                                                   double sigma,
                                                   QueryStats* stats_out,
                                                   TraceContext* trace) {
  Timer filter_timer;
  const StatePin pin = PinState();

  // ---- Round 1: fan shard_query over a healthy cover, with failover ----
  std::vector<QueryFragment> fragments;
  std::vector<std::unordered_map<int, double>> merged;
  std::unordered_set<int> exclude;
  bool round1_done = false;
  while (!round1_done) {
    std::vector<int> cover;
    PIS_RETURN_NOT_OK(PickCover(exclude, &cover));
    // Group the cover's shards per endpoint: one shard_query round trip
    // asks an endpoint for every shard it covers.
    std::vector<std::pair<int, std::vector<int>>> groups;  // endpoint, shards
    for (int s = 0; s < num_shards(); ++s) {
      const int e = cover[s];
      auto it = std::find_if(groups.begin(), groups.end(),
                             [e](const auto& g) { return g.first == e; });
      if (it == groups.end()) {
        groups.emplace_back(e, std::vector<int>{s});
      } else {
        it->second.push_back(s);
      }
    }
    std::vector<Result<ShardQueryResult>> replies(
        groups.size(), Status::Internal("shard_query not run"));
    const int fan = std::max(1, options_.options.shard_threads);
    ParallelFor(groups.size(), fan, [&](size_t g) {
      const double start_ms = trace != nullptr ? trace->ElapsedMs() : 0;
      replies[g] = endpoints_[groups[g].first]->backend->ShardQuery(
          query, groups[g].second, sigma, trace != nullptr);
      if (trace != nullptr) {
        // The replica's own stage spans (remote clock domain) graft under
        // this round-trip span; a failed attempt records with no children.
        std::vector<TraceSpan> children;
        if (replies[g].ok()) children = std::move(replies[g].value().spans);
        trace->RecordSince(
            "shard_query:" + endpoints_[groups[g].first]->backend->name(),
            start_ms, std::move(children));
      }
    });
    bool retry = false;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (replies[g].ok()) continue;
      if (IsTransportError(replies[g].status())) {
        NoteTransportFailure(*endpoints_[groups[g].first]);
        exclude.insert(groups[g].first);
        retry = true;
        if (metrics_.failovers != nullptr) metrics_.failovers->Inc();
        continue;
      }
      // Application error from a healthy replica (e.g. "query graph is
      // empty") — the single-process engine would fail identically.
      return replies[g].status();
    }
    if (retry) continue;

    // ---- Merge: positional union of the per-fragment maps ----
    // The first reply's catalog is the reference; it is only moved into
    // `fragments` after the loop (which still reads it for comparison).
    ScopedSpan merge_span(trace, "merge");
    const auto& catalog = replies[0].value().fragments;
    merged.assign(catalog.size(), {});
    for (size_t g = 0; g < groups.size(); ++g) {
      ShardQueryResult& r = replies[g].value();
      if (r.fragments.size() != catalog.size()) {
        return Status::Internal(
            "fragment catalogs diverge across replicas (" +
            endpoints_[groups[g].first]->backend->name() + " enumerated " +
            std::to_string(r.fragments.size()) + " fragments, expected " +
            std::to_string(catalog.size()) + ")");
      }
      for (size_t fi = 0; fi < catalog.size(); ++fi) {
        if (r.fragments[fi].prepared.class_id !=
            catalog[fi].prepared.class_id) {
          return Status::Internal(
              "fragment catalogs diverge across replicas (class mismatch)");
        }
        // Shards own disjoint global-id spaces: plain union.
        for (const auto& [gid, d] : r.dists[fi]) merged[fi].emplace(gid, d);
      }
    }
    fragments = std::move(replies[0].value().fragments);
    round1_done = true;
  }

  // ---- Global filter: the exact Algorithm 2 core both engines share ----
  FilterResult filter;
  filter.fragments = std::move(fragments);
  const size_t total_shards = static_cast<size_t>(num_shards());
  internal::FragmentDistFn fragment_dists =
      [&merged, total_shards](size_t fi, double /*sigma*/,
                              std::unordered_map<int, double>* dist,
                              QueryStats* stats) {
        *dist = std::move(merged[fi]);
        // The cover issued one physical range query per (fragment, shard),
        // exactly like the in-process fan-out.
        stats->range_queries += total_shards;
        return Status::OK();
      };
  PisOptions filter_options = options_.options;
  filter_options.sigma = sigma;
  const double core_start_ms = trace != nullptr ? trace->ElapsedMs() : 0;
  PIS_RETURN_NOT_OK(internal::RunPisFilterCore(
      pin.db_slots, &pin.tombstones, filter_options, fragment_dists,
      &filter));
  filter.stats.filter_seconds = filter_timer.Seconds();
  if (trace != nullptr) {
    trace->Record(BuildFilterSpan(filter.stats, core_start_ms,
                                  trace->ElapsedMs() - core_start_ms));
  }

  // ---- Round 2: verify candidates on their owning shard's replica ----
  Timer verify_timer;
  SearchResult result;
  result.candidates = filter.candidates;
  result.stats = filter.stats;
  // Candidates grouped by owning shard; each shard verifies independently
  // (failover is per shard — a replica death mid-round only re-sends that
  // shard's candidate list).
  std::vector<std::vector<int>> by_shard(num_shards());
  for (int gid : filter.candidates) {
    const int s = pin.routing[gid];
    if (s < 0) {
      return Status::Internal("candidate " + std::to_string(gid) +
                              " has no routing entry");
    }
    by_shard[s].push_back(gid);
  }
  std::vector<int> shards_with_work;
  for (int s = 0; s < num_shards(); ++s) {
    if (!by_shard[s].empty()) shards_with_work.push_back(s);
  }
  std::vector<Result<std::vector<int>>> verified(
      shards_with_work.size(), Status::Internal("shard_verify not run"));
  const int fan = std::max(1, options_.options.shard_threads);
  ParallelFor(shards_with_work.size(), fan, [&](size_t i) {
    const int s = shards_with_work[i];
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
        verified[i] = Status::Unavailable(
            "no healthy replica can verify shard " + std::to_string(s) +
            ": " + last.ToString());
        return;
      }
      const double start_ms = trace != nullptr ? trace->ElapsedMs() : 0;
      std::vector<TraceSpan> child_spans;
      Result<std::vector<int>> answers =
          endpoints_[chosen]->backend->ShardVerify(
              query, by_shard[s], sigma, trace != nullptr,
              trace != nullptr ? &child_spans : nullptr);
      if (answers.ok()) {
        NoteTransportSuccess(*endpoints_[chosen]);
        if (trace != nullptr) {
          trace->RecordSince(
              "shard_verify:shard" + std::to_string(s) + "@" +
                  endpoints_[chosen]->backend->name(),
              start_ms, std::move(child_spans));
        }
        verified[i] = std::move(answers);
        return;
      }
      last = answers.status();
      if (IsTransportError(last)) {
        NoteTransportFailure(*endpoints_[chosen]);
        tried.insert(chosen);
        if (metrics_.failovers != nullptr) metrics_.failovers->Inc();
        continue;
      }
      if (last.code() == StatusCode::kNotFound) {
        // The replica is behind on this gid (e.g. restarted from an older
        // checkpoint): fail over rather than answer from stale state.
        tried.insert(chosen);
        if (metrics_.failovers != nullptr) metrics_.failovers->Inc();
        continue;
      }
      verified[i] = last;  // real application error: surface it
      return;
    }
  });
  for (Result<std::vector<int>>& v : verified) {
    if (!v.ok()) return v.status();
    result.answers.insert(result.answers.end(), v.value().begin(),
                          v.value().end());
  }
  std::sort(result.answers.begin(), result.answers.end());
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verify_timer.Seconds();
  *stats_out = result.stats;
  return result;
}

BatchSearchResult ClusterEngine::SearchBatch(std::span<const Graph> queries,
                                             int num_threads) {
  const int workers =
      std::min<int>(num_threads > 0 ? num_threads : HardwareThreads(),
                    std::max<size_t>(queries.size(), 1));
  return internal::RunSearchBatch(
      queries.size(), workers,
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
      if (ep.catchup_depth != nullptr) {
        ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
      }
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
      if (ep.catchup_depth != nullptr) {
        ep.catchup_depth->Set(static_cast<int64_t>(ep.pending.size()));
      }
    } else {
      // Application rejection: retrying is pointless (it would fail the
      // same way forever and wedge the queue). This replica misses the op.
      PIS_LOG(Error) << ep.backend->name() << " rejected write (gid "
                     << op.gid << "): " << applied.ToString();
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
    entry.Set("consecutive_failures", ep.consecutive_failures);
    entry.Set("pending_ops", static_cast<uint64_t>(ep.pending_ops));
    endpoints.Push(std::move(entry));
  }
  json.Set("endpoints", std::move(endpoints));
  return json;
}

}  // namespace pis
