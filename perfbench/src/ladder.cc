#include "ladder.h"

#include <cstdio>

#include "client.h"
#include "core/query_fragments.h"
#include "core/verifier.h"
#include "index/sharded_index.h"
#include "obs/trace.h"

namespace pisbench {

using pis::JsonValue;
using pis::Result;

namespace {

// Queries the ladder replays at least, so the reconciled means never rest
// on one or two executions.
constexpr uint64_t kMinLadderQueries = 8;
// Writes of the traced run: at least this many, at the workload rate.
constexpr int kMinTracedWrites = 20;
// Graphs added to a private clone of the index for index.add_graph_ms.
constexpr int kCloneAdds = 20;

/// Per-replay accumulators that spans do not carry.
struct LadderCounts {
  uint64_t queries = 0;
  uint64_t range_queries = 0;
  uint64_t matches = 0;
  uint64_t candidates = 0;
  uint64_t answers = 0;
};

/// Lays the filter's stage timings out as children of its span, ending
/// where the filter ended (enumeration runs first and is not a stage).
void AddFilterStages(SpanLog* log, uint64_t trace_id, int filter_span,
                     const pis::QueryStats& stats) {
  const Span filter = log->spans()[filter_span];
  double offset = filter.end_ms - 1e3 * (stats.sketch_seconds +
                                         stats.pass1_seconds +
                                         stats.partition_seconds +
                                         stats.pass2_seconds);
  auto stage = [&](const char* name, double seconds) {
    const double start = offset;
    offset += seconds * 1e3;
    return log->Add(name, trace_id, filter_span, start, offset);
  };
  if (stats.sketch_seconds > 0) stage("core.sketch", stats.sketch_seconds);
  stage("core.pass1", stats.pass1_seconds);
  stage("core.partition", stats.partition_seconds);
  stage("core.pass2", stats.pass2_seconds);
}

/// One query down every layer. Returns the failed answer checks (one per
/// answering layer: filter+verify, host, pis_server, cluster, router).
uint64_t ReplayQuery(Deployment& d, const pis::Graph& query,
                     const std::string& request,
                     const std::vector<int>& expected, uint64_t trace_id,
                     Client* server_client, Client* router_client,
                     SpanLog* log, LadderCounts* counts) {
  const pis::EngineHost& host = *d.server->host;
  std::shared_ptr<const pis::EngineHost::Snapshot> snap = host.snapshot();
  const pis::ShardedFragmentIndex& index = *snap->index;
  const double root_start = log->NowMs();
  std::vector<int> spans;  // direct children of the root

  // EngineHost::Search repeats the work of the filter and verify calls, and
  // whichever runs second finds the caches warm. Alternating the order per
  // query keeps that advantage out of trace.host_accounted.
  const bool host_first = trace_id % 2 == 0;
  Result<pis::SearchResult> hosted = pis::Status::Internal("not run");
  auto search_host = [&] {
    const double start = log->NowMs();
    hosted = host.Search(query);
    spans.push_back(
        log->Add("server.host_search", trace_id, -1, start, log->NowMs()));
  };
  if (host_first) search_host();

  double t = log->NowMs();
  Result<std::vector<pis::QueryFragment>> fragments =
      pis::EnumerateIndexedQueryFragments(index.shard(0), query);
  spans.push_back(log->Add("core.enumerate", trace_id, -1, t, log->NowMs()));
  bool index_ok = fragments.ok();
  if (fragments.ok()) {
    for (const pis::QueryFragment& f : fragments.value()) {
      t = log->NowMs();
      for (int s = 0; s < index.num_shards(); ++s) {
        index_ok &= index.shard(s)
                        .RangeQuery(f.prepared, kSigma,
                                    [&](int, double) { ++counts->matches; })
                        .ok();
        ++counts->range_queries;
      }
      spans.push_back(
          log->Add("index.range_query", trace_id, -1, t, log->NowMs()));
    }
  }

  t = log->NowMs();
  Result<pis::FilterResult> filtered = snap->engine.Filter(query);
  const int filter_span =
      log->Add("core.filter", trace_id, -1, t, log->NowMs());
  spans.push_back(filter_span);
  if (filtered.ok()) {
    AddFilterStages(log, trace_id, filter_span, filtered.value().stats);
  }

  pis::VerifyResult verified;
  t = log->NowMs();
  if (filtered.ok()) {
    verified = pis::VerifyCandidates(*snap->db, query,
                                     filtered.value().candidates,
                                     snap->engine.index().options().spec,
                                     kSigma);
  }
  spans.push_back(
      log->Add("isomorphism.verify", trace_id, -1, t, log->NowMs()));

  if (!host_first) search_host();

  t = log->NowMs();
  Result<JsonValue> served = server_client->Call(request);
  spans.push_back(log->Add("server.rpc", trace_id, -1, t, log->NowMs()));

  pis::TraceContext cluster_trace("ladder");
  t = log->NowMs();
  const double cluster_origin = t - cluster_trace.ElapsedMs();
  Result<pis::SearchResult> clustered =
      d.cluster->Search(query, kSigma, &cluster_trace);
  const int cluster_span =
      log->Add("cluster.search", trace_id, -1, t, log->NowMs());
  spans.push_back(cluster_span);
  for (const pis::TraceSpan& child : cluster_trace.TakeSpans()) {
    const double start = cluster_origin + child.start_ms;
    log->Add("cluster." + child.name, trace_id, cluster_span, start,
             start + child.dur_ms);
  }

  t = log->NowMs();
  Result<JsonValue> routed = router_client->Call(request);
  spans.push_back(log->Add("router.rpc", trace_id, -1, t, log->NowMs()));

  const int root =
      log->Add("ladder", trace_id, -1, root_start, log->NowMs());
  for (int span : spans) log->SetParent(span, root);

  // Answer checks, outside every span.
  uint64_t failed = 0;
  auto check = [&](const char* layer, bool ok, const std::vector<int>& got) {
    if (ok && got == expected) return;
    ++failed;
    std::fprintf(stderr, "trace %llu: %s answers differ from NaiveSearch\n",
                 static_cast<unsigned long long>(trace_id), layer);
  };
  check("filter+verify", index_ok && filtered.ok(), verified.answers);
  check("host", hosted.ok(), hosted.ok() ? hosted.value().answers
                                         : std::vector<int>{});
  Result<std::vector<int>> served_answers =
      served.ok() ? AnswersOf(served.value())
                  : Result<std::vector<int>>(served.status());
  check("pis_server", served_answers.ok(),
        served_answers.ok() ? served_answers.value() : std::vector<int>{});
  check("cluster", clustered.ok(), clustered.ok()
                                       ? clustered.value().answers
                                       : std::vector<int>{});
  Result<std::vector<int>> routed_answers =
      routed.ok() ? AnswersOf(routed.value())
                  : Result<std::vector<int>>(routed.status());
  check("router", routed_answers.ok(),
        routed_answers.ok() ? routed_answers.value() : std::vector<int>{});

  ++counts->queries;
  if (filtered.ok()) counts->candidates += filtered.value().candidates.size();
  counts->answers += verified.answers.size();
  return failed;
}

/// Reports `name` = accounted / whole, and whether it is at most
/// 1 + kReconcileTolerance and, when `two_sided`, at least
/// 1 - kReconcileTolerance.
bool Reconcile(MetricSet* metrics, const char* name, double accounted,
               double whole, bool two_sided) {
  const double ratio = whole > 0 ? accounted / whole : 0;
  metrics->Set(name, ratio, "ratio");
  const bool ok = ratio <= 1 + kReconcileTolerance &&
                  (!two_sided || ratio >= 1 - kReconcileTolerance);
  if (!ok) {
    std::fprintf(stderr, "reconciliation %s = %.3f is outside tolerance %.2f\n",
                 name, ratio, kReconcileTolerance);
  }
  return ok;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

}  // namespace

LadderOutcome RunTracedLadder(Deployment& d,
                              const std::vector<pis::Graph>& queries,
                              const std::vector<std::vector<int>>& expected,
                              double seconds, SpanLog* log,
                              MetricSet* metrics) {
  LadderOutcome outcome;
  Result<Client> server_client = Client::Connect(d.server->server->port());
  Result<Client> router_client = Client::Connect(d.router->port());
  if (!server_client.ok() || !router_client.ok()) {
    std::fprintf(stderr, "traced run: cannot connect\n");
    outcome.ops = {1, 1};
    return outcome;
  }
  std::vector<std::string> requests;
  for (const pis::Graph& q : queries) requests.push_back(QueryRequest(q));

  // ---- Query ladder.
  LadderCounts counts;
  const Clock::time_point start = Clock::now();
  const double ladder_ms = 0.75 * seconds * 1e3;
  for (size_t i = 0; counts.queries < kMinLadderQueries ||
                     MsBetween(start, Clock::now()) < ladder_ms;
       ++i) {
    const size_t q = i % queries.size();
    outcome.ops.attempted += 5;  // one answer check per answering layer
    outcome.ops.failed += ReplayQuery(d, queries[q], requests[q], expected[q],
                                      i + 1, &server_client.value(),
                                      &router_client.value(), log, &counts);
  }

  const double n = static_cast<double>(counts.queries);
  auto per_query = [&](const char* span) { return log->TotalMs(span) / n; };
  const double enumerate = per_query("core.enumerate");
  const double range_query = per_query("index.range_query");
  const double filter = per_query("core.filter");
  const double pass1 = per_query("core.pass1");
  const double partition = per_query("core.partition");
  const double pass2 = per_query("core.pass2");
  const double verify = per_query("isomorphism.verify");
  const double host = per_query("server.host_search");
  const double rpc = per_query("server.rpc");
  const double cluster = per_query("cluster.search");
  const double router = per_query("router.rpc");
  double cluster_children = 0;
  double root_self = 0;
  for (size_t id = 0; id < log->spans().size(); ++id) {
    const Span& s = log->spans()[id];
    if (s.name == "cluster.search") {
      cluster_children += s.dur_ms() - log->SelfMs(static_cast<int>(id));
    } else if (s.name == "ladder") {
      root_self += log->SelfMs(static_cast<int>(id));
    }
  }
  cluster_children /= n;

  metrics->Set("ladder.queries", n, "count");
  metrics->Set("index.range_query_ms", range_query, "ms");
  metrics->Set("index.range_queries_per_query", counts.range_queries / n,
               "count");
  metrics->Set("index.matches_per_query", counts.matches / n, "count");
  metrics->Set("core.enumerate_ms", enumerate, "ms");
  metrics->Set("core.filter_ms", filter, "ms");
  metrics->Set("core.pass1_ms", pass1, "ms");
  metrics->Set("core.partition_ms", partition, "ms");
  metrics->Set("core.pass2_ms", pass2, "ms");
  metrics->Set("core.candidate_precision",
               counts.candidates > 0
                   ? static_cast<double>(counts.answers) / counts.candidates
                   : 1.0,
               "ratio");
  metrics->Set("core.filter_share", host > 0 ? filter / host : 0, "ratio");
  metrics->Set("isomorphism.verify_ms", verify, "ms");
  metrics->Set("isomorphism.verify_share", host > 0 ? verify / host : 0,
               "ratio");
  metrics->Set("isomorphism.verify_us_per_candidate",
               counts.candidates > 0
                   ? log->TotalMs("isomorphism.verify") * 1e3 /
                         static_cast<double>(counts.candidates)
                   : 0,
               "us");
  metrics->Set("server.host_search_ms", host, "ms");
  metrics->Set("server.rpc_overhead_ms", rpc - host, "ms");
  metrics->Set("cluster.search_ms", cluster, "ms");
  metrics->Set("cluster.fabric_overhead_ms", cluster - host, "ms");
  metrics->Set("router.rpc_overhead_ms", router - cluster, "ms");
  metrics->Set("trace.overhead_ms", root_self / n, "ms");

  // Each layer against the calls into the layers beneath it.
  bool reconciled = true;
  reconciled &= Reconcile(metrics, "trace.filter_accounted",
                          enumerate + pass1 + partition + pass2, filter, true);
  reconciled &= Reconcile(metrics, "trace.range_query_in_pass1", range_query,
                          pass1, false);
  reconciled &= Reconcile(metrics, "trace.host_accounted", filter + verify,
                          host, true);
  reconciled &= Reconcile(metrics, "trace.rpc_accounted", host, rpc, false);
  reconciled &= Reconcile(metrics, "trace.cluster_accounted",
                          cluster_children, cluster, true);
  reconciled &= Reconcile(metrics, "trace.host_in_cluster", host, cluster,
                          false);
  reconciled &= Reconcile(metrics, "trace.router_accounted", cluster, router,
                          false);
  outcome.reconciled = reconciled;

  // ---- Write path: open loop at the workload rate through pis_server.
  const double write_seconds =
      std::max(0.25 * seconds, (kMinTracedWrites + 0.5) / kWritesPerSecond);
  WriteStream stream(d.inputs);
  const uint64_t wal_before = d.server->host->Stats().wal_bytes;
  WriteLoad writes = RunOpenLoopWrites(d.server->server->port(), &stream,
                                       kWritesPerSecond, write_seconds);
  outcome.ops.Add(writes.ops);
  const uint64_t wal_after = d.server->host->Stats().wal_bytes;
  const size_t acked = writes.add_ms.size() + writes.remove_ms.size();
  metrics->Set("server.add_ms", Percentile(writes.add_ms, 0.5), "ms");
  metrics->Set("server.remove_ms", Percentile(writes.remove_ms, 0.5), "ms");
  metrics->Set("wal.bytes_per_write",
               acked > 0 ? static_cast<double>(wal_after - wal_before) /
                               static_cast<double>(acked)
                         : 0,
               "B");
  metrics->Set("loadgen.write_late_p95_ms", Percentile(writes.late_ms, 0.95),
               "ms");

  double compact_ms = 0;
  {
    Result<Client> client = Client::Connect(d.server->server->port());
    Result<JsonValue> reply =
        client.ok() ? client.value().Call(CompactRequest(), &compact_ms)
                    : Result<JsonValue>(client.status());
    ++outcome.ops.attempted;
    if (!reply.ok()) {
      ++outcome.ops.failed;
      std::fprintf(stderr, "compact failed: %s\n",
                   reply.status().ToString().c_str());
    }
  }
  metrics->Set("server.compact_ms", compact_ms, "ms");

  // Index maintenance alone: AddGraph on a private copy, no WAL, no host.
  std::vector<double> add_graph_ms;
  Result<pis::ShardedFragmentIndex> clone =
      pis::ShardedFragmentIndex::LoadDir(d.index_dir);
  outcome.ops.attempted += kCloneAdds;
  if (!clone.ok()) {
    outcome.ops.failed += kCloneAdds;
  } else {
    for (int i = 0; i < kCloneAdds; ++i) {
      const pis::Graph& g =
          d.inputs.pool.at(d.inputs.pool.size() - 1 - static_cast<size_t>(i));
      const double t = log->NowMs();
      const bool ok = clone.value().AddGraph(g).ok();
      add_graph_ms.push_back(log->NowMs() - t);
      log->Add("index.add_graph", 0, -1, t, t + add_graph_ms.back());
      if (!ok) ++outcome.ops.failed;
    }
  }
  metrics->Set("index.add_graph_ms", Mean(add_graph_ms), "ms");
  metrics->Set("mining.mine_s", d.mine_s, "s");
  metrics->Set("index.build_s", d.build_s, "s");
  return outcome;
}

}  // namespace pisbench
