// Differential tests for the distributed shard fabric: a ClusterEngine
// fanning over real PisServers on loopback sockets must be externally
// indistinguishable — answers, candidate lists, every shared QueryStats
// counter — from a single-process EngineHost applying the same write
// schedule. Covers shards {1,3,8} x replicas {1,2}, a randomized
// add/remove/compact/query lifecycle per configuration, write-path
// placement parity, and a replica kill-and-restart mid-stream with catch-up
// verified by failing reads over to the recovered replica.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "graph/io.h"
#include "server/cluster_engine.h"
#include "server/router_server.h"
#include "util/json.h"
#include "util/socket.h"

namespace pis {
namespace {

using pis::testing::ClusterHarness;

/// One randomized lifecycle pass: interleaved adds, removes, compactions,
/// and differential query/batch checks. Bails on the first fatal failure
/// so a broken cluster doesn't cascade.
void RunLifecycle(ClusterHarness& h, int steps) {
  h.CheckQueries();
  for (int step = 0; step < steps; ++step) {
    if (::testing::Test::HasFatalFailure()) return;
    switch (h.rng().UniformInt(0, 3)) {
      case 0:
        if (h.CanAdd()) h.AddOne();
        break;
      case 1:
        if (h.live_count() > 4) h.RemoveOne();
        break;
      case 2:
        h.CompactAll();
        break;
      default:
        h.CheckQueries();
        break;
    }
  }
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  h.CheckBatch();
}

TEST(ClusterRouterTest, SingleShardSingleReplica) {
  ClusterHarness::Options opt;
  opt.num_shards = 1;
  opt.replicas = 1;
  opt.num_groups = 1;
  opt.seed = 1;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RunLifecycle(h, 8);
}

TEST(ClusterRouterTest, ThreeShardsSingleReplica) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.replicas = 1;
  opt.num_groups = 2;  // one endpoint serves two shards: grouped fan-out
  opt.seed = 2;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RunLifecycle(h, 10);
}

TEST(ClusterRouterTest, ThreeShardsTwoReplicas) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.replicas = 2;
  opt.num_groups = 2;
  opt.seed = 3;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RunLifecycle(h, 10);
}

TEST(ClusterRouterTest, EightShardsSingleReplica) {
  ClusterHarness::Options opt;
  opt.num_shards = 8;
  opt.replicas = 1;
  opt.num_groups = 3;  // uneven striping: groups own 3/3/2 shards
  opt.seed = 4;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RunLifecycle(h, 8);
}

TEST(ClusterRouterTest, EightShardsTwoReplicas) {
  ClusterHarness::Options opt;
  opt.num_shards = 8;
  opt.replicas = 2;
  opt.num_groups = 2;
  opt.seed = 5;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RunLifecycle(h, 8);
}

/// Placement parity is what makes a router-driven cluster reconstructible:
/// the router's least-loaded/lowest-id rule must assign exactly the gids
/// the oracle's ShardedFragmentIndex::AddGraph assigns, including after
/// removals skew the per-shard live counts.
TEST(ClusterRouterTest, WritePlacementMatchesOracleUnderSkew) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.replicas = 1;
  opt.num_groups = 3;
  opt.seed = 7;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 0; i < 3 && h.live_count() > 4; ++i) {
    h.RemoveOne();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (h.CanAdd()) {
    h.AddOne();  // asserts cluster gid == oracle gid on every add
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.CheckQueries();
}

/// The cluster-grade schedule the fabric exists for: kill one replica of
/// a 2-replica group mid-stream, keep querying and writing through the
/// outage (reads fail over; writes ack on the surviving replica and queue
/// for the dead one), restart it, then kill the OTHER replica — forcing
/// every read of that group onto the recovered one, which proves the
/// catch-up queue actually replayed the missed writes.
TEST(ClusterRouterTest, ReplicaKillAndRestartMidStream) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.replicas = 2;
  opt.num_groups = 3;  // 6 servers; group g serves exactly shard g
  opt.seed = 8;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  const int victim = h.ServerIndex(/*group=*/0, /*replica=*/0);
  const int sibling = h.ServerIndex(/*group=*/0, /*replica=*/1);
  h.KillServer(victim);
  if (::testing::Test::HasFatalFailure()) return;

  // Reads fail over to the sibling; writes commit with one ack and queue
  // catch-up for the victim.
  h.CheckQueries();
  for (int i = 0; i < 3; ++i) {
    if (::testing::Test::HasFatalFailure()) return;
    h.AddOne();
  }
  h.RemoveOne();
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  // Availability must survive the outage without the victim.
  ClusterEngine::ClusterStats mid = h.cluster().Stats();
  size_t queued = 0;
  for (const auto& ep : mid.endpoints) queued += ep.pending_ops;
  EXPECT_GT(queued, 0u) << "the dead replica should have queued catch-up ops";

  h.RestartServer(victim);  // rebind + one probe pass drains catch-up
  if (::testing::Test::HasFatalFailure()) return;
  ClusterEngine::ClusterStats after = h.cluster().Stats();
  for (const auto& ep : after.endpoints) {
    EXPECT_EQ(ep.pending_ops, 0u) << ep.name << " still has queued ops";
    EXPECT_FALSE(ep.breaker_open) << ep.name << " breaker still open";
  }

  // Now force reads onto the recovered replica: with the sibling dead,
  // shard 0 is served only by the victim we just restarted, so identical
  // answers prove the replayed writes really applied.
  h.KillServer(sibling);
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  h.AddOne();
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  h.RestartServer(sibling);
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  h.CheckBatch();
}

/// Fault injection while requests are in flight: a replica dies in the
/// middle of a SearchBatch. Per-query failover must make the kill
/// invisible — every batch result still ok and identical to the oracle
/// (the surviving replica holds the same state, so retried reads cannot
/// diverge).
TEST(ClusterRouterTest, ReplicaKillMidBatchFailsOverWithIdenticalResults) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.replicas = 2;
  opt.num_groups = 3;
  opt.seed = 10;
  opt.queries_per_check = 5;  // enough in-flight work to straddle the kill
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  const int victim = h.ServerIndex(/*group=*/1, /*replica=*/0);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    h.KillServer(victim);
  });
  h.CheckBatch();  // races the kill by design; results must not change
  killer.join();
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  h.RestartServer(victim);
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
}

/// A cluster with every replica of one shard down must degrade loudly:
/// reads report Unavailable — never wrong answers computed from the
/// surviving shards alone — and recover differentially once the replica
/// returns.
TEST(ClusterRouterTest, TotalShardOutageIsUnavailableNotWrong) {
  ClusterHarness::Options opt;
  opt.num_shards = 2;
  opt.replicas = 1;
  opt.num_groups = 2;
  opt.seed = 9;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckQueries();
  if (::testing::Test::HasFatalFailure()) return;

  const int victim = h.ServerIndex(/*group=*/1, /*replica=*/0);
  h.KillServer(victim);
  if (::testing::Test::HasFatalFailure()) return;

  auto snapshot = h.oracle().snapshot();
  auto query = pis::testing::SampleQueries(*snapshot->db, 1, 6, /*seed=*/77);
  ASSERT_EQ(query.size(), 1u);
  auto result = h.cluster().Search(query[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();

  h.RestartServer(victim);
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckQueries();
}

/// One request line to `port` and its parsed reply.
JsonValue RouterRoundTrip(TcpSocket* conn, const std::string& line) {
  EXPECT_TRUE(conn->SendLine(line).ok());
  auto reply = conn->RecvLine();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return JsonValue();
  auto parsed = JsonValue::Parse(reply.value());
  EXPECT_TRUE(parsed.ok()) << reply.value();
  return parsed.ok() ? parsed.MoveValue() : JsonValue();
}

/// pis_router's protocol shell: the `metrics` op renders the router's
/// per-op families beside the cluster fabric's, a malformed line counts as
/// op="other", the per-op family sums to requests_served(), and a router
/// built without a registry still answers `metrics`.
TEST(ClusterRouterTest, RouterMetricsAndStatsRenderOneRegistry) {
  MetricsRegistry registry;
  ClusterHarness::Options opt;
  opt.num_shards = 2;
  opt.replicas = 1;
  opt.num_groups = 2;
  opt.seed = 6;
  opt.metrics = &registry;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  RouterServerOptions ropt;
  ropt.num_workers = 2;
  ropt.metrics = &registry;
  RouterServer router(&h.cluster(), ropt);
  ASSERT_TRUE(router.Start().ok());
  auto dialed = TcpSocket::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  TcpSocket conn = dialed.MoveValue();

  int sent = 0;
  auto send = [&](const std::string& line) {
    ++sent;
    return RouterRoundTrip(&conn, line);
  };
  JsonValue query = JsonValue::Object();
  query.Set("op", "query");
  query.Set("graph", FormatGraph(h.oracle().snapshot()->db->at(0), 0));
  EXPECT_TRUE(send(query.Serialize()).GetBoolOr("ok", false));
  EXPECT_TRUE(send("{\"op\":\"health\"}").GetBoolOr("ok", false));
  EXPECT_FALSE(send("not json").GetBoolOr("ok", true));
  EXPECT_FALSE(send("{\"op\":\"frobnicate\"}").GetBoolOr("ok", true));

  JsonValue metrics = send("{\"op\":\"metrics\"}");
  ASSERT_TRUE(metrics.GetBoolOr("ok", false)) << metrics.Serialize();
  const std::string text = metrics.GetStringOr("text", "");
  for (const char* family : {
           "# TYPE pis_router_requests_total counter",
           "# TYPE pis_router_request_seconds histogram",
           "# TYPE pis_router_connections_total counter",
           "# TYPE pis_cluster_rpc_seconds histogram",
           "# TYPE pis_cluster_breaker_open gauge",
           "# TYPE pis_cluster_catchup_pending gauge",
           "# TYPE pis_cluster_failovers_total counter",
       }) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("pis_router_requests_total{op=\"other\"} 2\n"),
            std::string::npos)
      << text;

  JsonValue stats = send("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.GetBoolOr("ok", false));
  ASSERT_NE(stats.Find("stats"), nullptr);
  const JsonValue* mirror = stats.Find("metrics");
  ASSERT_NE(mirror, nullptr);
  const JsonValue* requests = mirror->Find("pis_router_requests_total");
  ASSERT_NE(requests, nullptr);
  double counted = 0;
  for (const JsonValue& v : requests->Find("values")->items()) {
    counted += v.GetNumberOr("value", 0);
  }
  // The stats request itself counts once its reply is built.
  EXPECT_EQ(counted, sent - 1);
  EXPECT_EQ(router.requests_served(), static_cast<uint64_t>(sent));

  RouterServer bare(&h.cluster(), {});
  ASSERT_TRUE(bare.Start().ok());
  auto bare_dialed = TcpSocket::Connect("127.0.0.1", bare.port());
  ASSERT_TRUE(bare_dialed.ok());
  JsonValue bare_metrics =
      RouterRoundTrip(&bare_dialed.value(), "{\"op\":\"metrics\"}");
  ASSERT_TRUE(bare_metrics.GetBoolOr("ok", false)) << bare_metrics.Serialize();
  EXPECT_NE(bare_metrics.GetStringOr("text", "").find(
                "pis_router_requests_total{op=\"metrics\"}"),
            std::string::npos);
  bare.Shutdown();
  bare.Wait();
  router.Shutdown();
  router.Wait();
}

TEST(ClusterManifestTest, ParsesAndValidates) {
  auto good = JsonValue::Parse(
      R"({"shards":[{"replicas":["127.0.0.1:4871","127.0.0.1:4872"]},)"
      R"({"replicas":["127.0.0.1:4873"]}]})");
  ASSERT_TRUE(good.ok());
  auto manifest = ClusterManifest::FromJson(good.value());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().shards.size(), 2u);
  EXPECT_EQ(manifest.value().shards[0].replicas.size(), 2u);
  EXPECT_EQ(manifest.value().shards[1].replicas[0], "127.0.0.1:4873");

  for (const char* bad : {
           R"({})",                                      // missing shards
           R"({"shards":[]})",                           // no shards
           R"({"shards":[{"replicas":[]}]})",            // empty replica set
           R"({"shards":[{"replicas":["nohost"]}]})",    // no port separator
           R"({"shards":[{"replicas":["h:0"]}]})",       // port out of range
           R"({"shards":[{"replicas":["h:70000"]}]})",   // port out of range
           R"({"shards":[{"replicas":[42]}]})",          // non-string replica
       }) {
    auto parsed = JsonValue::Parse(bad);
    ASSERT_TRUE(parsed.ok()) << bad;
    EXPECT_FALSE(ClusterManifest::FromJson(parsed.value()).ok())
        << "accepted invalid manifest: " << bad;
  }
}

}  // namespace
}  // namespace pis
