#include "deploy.h"

#include <filesystem>

#include "index/sharded_index.h"
#include "mining/pipeline.h"
#include "util/parallel.h"

namespace pisbench {

using pis::Result;
using pis::Status;

namespace {

// Router deadlines sit far above any latency the workloads produce, so a
// slow reply is measured, never failed over.
constexpr int kRouterTimeoutMs = 60000;

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Loads the saved index into a fresh EngineHost configured like a
/// `pis_server --wal_dir ... --compact_dead_ratio ...` process and starts
/// serving it on an ephemeral loopback port.
Result<std::unique_ptr<ServerNode>> StartServerNode(
    const Deployment& d, const std::string& wal_dir,
    std::vector<int> shards_owned, pis::MetricsRegistry* metrics) {
  PIS_ASSIGN_OR_RETURN(pis::ShardedFragmentIndex index,
                       pis::ShardedFragmentIndex::LoadDir(d.index_dir));
  pis::PisOptions options;
  options.sigma = kSigma;
  options.compact_dead_ratio = kCompactDeadRatio;
  auto node = std::make_unique<ServerNode>();
  node->host = std::make_unique<pis::EngineHost>(d.inputs.db, std::move(index),
                                                 options);
  PIS_ASSIGN_OR_RETURN(pis::WriteAheadLog wal,
                       pis::WriteAheadLog::Open(wal_dir));
  PIS_RETURN_NOT_OK(node->host->AttachWal(
      std::make_unique<pis::WriteAheadLog>(std::move(wal))));
  PIS_RETURN_NOT_OK(node->host->StartAutoCompaction(
      std::chrono::milliseconds(kCompactIntervalMs)));
  node->host->EnableMetrics(metrics);

  pis::PisServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  server_options.shards_owned = std::move(shards_owned);
  server_options.metrics = metrics;
  node->server =
      std::make_unique<pis::PisServer>(node->host.get(), server_options);
  PIS_RETURN_NOT_OK(node->server->Start());
  return node;
}

void StopServerNode(ServerNode* node) {
  if (node->server != nullptr) {
    node->server->Shutdown();
    node->server->Wait();
  }
  if (node->host != nullptr) node->host->StopAutoCompaction();
}

}  // namespace

Deployment::~Deployment() {
  if (router != nullptr) {
    router->Shutdown();
    router->Wait();
  }
  if (cluster != nullptr) cluster->StopHealthThread();
  cluster.reset();  // closes the router's replica connections first
  for (auto& replica : replicas) StopServerNode(replica.get());
  if (server != nullptr) StopServerNode(server.get());
}

Result<std::unique_ptr<Deployment>> SetUp(uint64_t seed, const std::string& dir,
                                          const DeployOptions& options) {
  const Clock::time_point start = Clock::now();
  auto d = std::make_unique<Deployment>();
  d->index_dir = dir + "/index";
  std::error_code ec;
  if (!std::filesystem::create_directories(dir, ec)) {
    return Status::IOError("cannot create fresh directory " + dir);
  }
  d->inputs = MakeInputs(seed);

  Clock::time_point phase = Clock::now();
  PIS_ASSIGN_OR_RETURN(
      std::vector<pis::Graph> features,
      pis::MineDiscriminativeFeatures(d->inputs.db, kMaxFragmentEdges,
                                      kMinSupport, kGamma));
  d->mine_s = MsBetween(phase, Clock::now()) / 1e3;

  phase = Clock::now();
  pis::FragmentIndexOptions index_options;
  index_options.max_fragment_edges = kMaxFragmentEdges;
  index_options.spec = pis::DistanceSpec::EdgeMutation();
  index_options.num_threads = pis::HardwareThreads();
  PIS_ASSIGN_OR_RETURN(pis::ShardedFragmentIndex index,
                       pis::ShardedFragmentIndex::Build(
                           d->inputs.db, features, index_options, kShards));
  d->build_s = MsBetween(phase, Clock::now()) / 1e3;
  PIS_RETURN_NOT_OK(index.SaveDir(d->index_dir));
  d->index_bytes = DirectoryBytes(d->index_dir);

  if (options.server) {
    PIS_ASSIGN_OR_RETURN(
        d->server,
        StartServerNode(*d, dir + "/wal_server", {}, &d->server_metrics));
  }
  if (options.cluster) {
    pis::ClusterManifest manifest;
    manifest.shards.resize(kShards);
    d->replica_metrics.resize(kShards);
    for (int s = 0; s < kShards; ++s) {
      d->replica_metrics[s] = std::make_unique<pis::MetricsRegistry>();
      PIS_ASSIGN_OR_RETURN(
          std::unique_ptr<ServerNode> replica,
          StartServerNode(*d, dir + "/wal_shard" + std::to_string(s), {s},
                          d->replica_metrics[s].get()));
      manifest.shards[s].replicas.push_back(
          "127.0.0.1:" + std::to_string(replica->server->port()));
      d->replicas.push_back(std::move(replica));
    }
    pis::ClusterEngineOptions cluster_options;
    cluster_options.timeout_ms = kRouterTimeoutMs;
    cluster_options.options.sigma = kSigma;
    cluster_options.metrics = &d->router_metrics;
    PIS_ASSIGN_OR_RETURN(
        d->cluster, pis::ClusterEngine::Connect(manifest, cluster_options));
    d->cluster->StartHealthThread();
    pis::RouterServerOptions router_options;
    router_options.num_workers = kServerWorkers;
    router_options.metrics = &d->router_metrics;
    d->router =
        std::make_unique<pis::RouterServer>(d->cluster.get(), router_options);
    PIS_RETURN_NOT_OK(d->router->Start());
  }
  d->setup_s = MsBetween(start, Clock::now()) / 1e3;
  return d;
}

}  // namespace pisbench
