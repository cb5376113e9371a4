// Set-up of one benchmark run: seeded inputs, feature mining, one 3-shard
// index built and saved once, and the servers that load it and listen on
// loopback. Everything a set-up starts is stopped by ~Deployment.
#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/pis_server.h"
#include "server/router_server.h"
#include "util/status.h"

namespace pisbench {

/// One pis_server: an EngineHost loaded from the saved index, with a
/// write-ahead log (fsync per group commit) and background compaction.
struct ServerNode {
  std::unique_ptr<pis::EngineHost> host;
  std::unique_ptr<pis::PisServer> server;
};

struct DeployOptions {
  /// A pis_server over the whole index (q16_server, q4_write_server).
  bool server = false;
  /// One one-shard pis_server replica per shard, a ClusterEngine over
  /// them, and a RouterServer in front (q16_router).
  bool cluster = false;
};

class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Inputs inputs;
  std::string index_dir;  ///< the saved 3-shard index every server loads
  double mine_s = 0;
  double build_s = 0;
  double setup_s = 0;
  uint64_t index_bytes = 0;

  // Metrics are on, as in the pis_server and pis_router tools; one registry
  // per process-to-be keeps the replicas' families apart. Declared before
  // the servers so they outlive them.
  pis::MetricsRegistry server_metrics;
  std::vector<std::unique_ptr<pis::MetricsRegistry>> replica_metrics;
  pis::MetricsRegistry router_metrics;

  std::unique_ptr<ServerNode> server;
  std::vector<std::unique_ptr<ServerNode>> replicas;
  std::unique_ptr<pis::ClusterEngine> cluster;
  std::unique_ptr<pis::RouterServer> router;
};

/// Runs one full set-up in `dir` (created; must not exist). setup_s covers
/// generation, mining, index build and save, every server's index load,
/// and all listeners up.
pis::Result<std::unique_ptr<Deployment>> SetUp(uint64_t seed,
                                               const std::string& dir,
                                               const DeployOptions& options);

}  // namespace pisbench

#endif  // PERFBENCH_DEPLOY_H_
