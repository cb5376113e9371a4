// pis_router: fan-out/merge front end over a cluster of pis_server shard
// replicas.
//
//   pis_router --manifest cluster.json [--port P] [--workers N]
//              [--sigma S] [--timeout_ms T]
//              [--breaker_threshold K] [--breaker_open_ms B]
//              [--health_interval_ms H]
//              [--slow_query_ms T] [--slow_query_log PATH]
//
// The manifest maps every shard to its replica endpoints (see
// docs/cluster.md):
//
//   {"shards": [{"replicas": ["127.0.0.1:4871", "127.0.0.1:4874"]},
//               {"replicas": ["127.0.0.1:4872", "127.0.0.1:4875"]}]}
//
// Startup bootstraps the global routing state from the highest-epoch
// reachable replica, then serves the client protocol of pis_server
// (health/stats/query/add/remove/shutdown) on the bound port: queries fan
// shard_filter across a healthy cover, plan the partition from the summed
// per-shard distance histograms, and send shard_refine to every shard;
// writes replicate to every replica of the owning shard with per-endpoint
// ordered catch-up for replicas that miss them. "pis_router listening on port <P>" goes to stdout once serving.
//
// --sigma is the default threshold of routed queries (every shard_filter
// and shard_refine request carries it to the replicas); --timeout_ms bounds every replica round trip so a wedged
// replica degrades to failover, not a hang.
//
// Observability (docs/observability.md): {"op":"metrics"} renders the
// fabric metrics (per-endpoint RPC latency, breaker state, catch-up depth,
// failovers) plus per-op request metrics as Prometheus text; a query with
// "trace":true returns the two-round span tree including each replica's
// own child spans. --slow_query_ms / --slow_query_log mirror pis_server.
#include <cstdio>
#include <memory>

#include "server/cluster_engine.h"
#include "server/router_server.h"
#include "util/flags.h"

using namespace pis;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  int port = 4870;
  int workers = 4;
  double sigma = 2.0;
  int timeout_ms = 5000;
  int breaker_threshold = 3;
  int breaker_open_ms = 500;
  int health_interval_ms = 100;
  double slow_query_ms = 0;
  std::string slow_query_log_path;

  FlagSet flags;
  flags.AddString("manifest", &manifest_path,
                  "cluster manifest JSON (shard -> replica endpoints)");
  flags.AddInt("port", &port, "TCP port (0 = ephemeral)");
  flags.AddInt("workers", &workers, "concurrent connections served");
  flags.AddDouble("sigma", &sigma, "default max superimposed distance");
  flags.AddInt("timeout_ms", &timeout_ms,
               "per-replica round-trip deadline (0 = block forever)");
  flags.AddInt("breaker_threshold", &breaker_threshold,
               "consecutive transport failures that open a replica's "
               "circuit breaker");
  flags.AddInt("breaker_open_ms", &breaker_open_ms,
               "how long an open breaker rejects a replica before the "
               "health prober retries it");
  flags.AddInt("health_interval_ms", &health_interval_ms,
               "health-probe and catch-up-drain cadence");
  flags.AddDouble("slow_query_ms", &slow_query_ms,
                  "log any query slower than this many milliseconds as a "
                  "single-line JSON span tree (0 = disabled)");
  flags.AddString("slow_query_log", &slow_query_log_path,
                  "slow-query log file (appended; empty = stderr)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (manifest_path.empty()) {
    return Fail(Status::InvalidArgument("--manifest is required"));
  }

  BlockShutdownSignals();

  Result<ClusterManifest> manifest = ClusterManifest::LoadFile(manifest_path);
  if (!manifest.ok()) return Fail(manifest.status());

  ClusterEngineOptions cluster_options;
  cluster_options.timeout_ms = timeout_ms;
  cluster_options.breaker_threshold = breaker_threshold;
  cluster_options.breaker_open_ms = breaker_open_ms;
  cluster_options.health_interval_ms = health_interval_ms;
  cluster_options.options.sigma = sigma;
  // The process-global registry: fabric metrics (breakers, RPC latency,
  // catch-up) and the router's per-op request metrics in one exposition.
  cluster_options.metrics = &MetricsRegistry::Global();
  Result<std::unique_ptr<ClusterEngine>> cluster =
      ClusterEngine::Connect(manifest.value(), cluster_options);
  if (!cluster.ok()) return Fail(cluster.status());
  cluster.value()->StartHealthThread();

  SlowQueryLog slow_log(slow_query_log_path, slow_query_ms);
  RouterServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = workers;
  server_options.metrics = &MetricsRegistry::Global();
  server_options.slow_query_log = &slow_log;
  RouterServer server(cluster.value().get(), server_options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  const ClusterEngine::ClusterStats stats = cluster.value()->Stats();
  std::printf("pis_router listening on port %d\n", server.port());
  std::printf("routing %d shards over %zu replica endpoints (%d live graphs, "
              "sigma %.2f)\n",
              stats.num_shards, stats.endpoints.size(), stats.live, sigma);
  std::fflush(stdout);

  WaitForShutdown(&server);
  cluster.value()->StopHealthThread();
  std::printf("served %llu requests over %llu connections\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.connections_served()));
  std::printf("pis_router shut down cleanly\n");
  return 0;
}
