// A replica that rejects a write it was sent silently misses acked state,
// so the router must take it out of reads for good: on the first delivery
// (ReplicateOp) and on a catch-up replay after a transport failure
// (DrainPending). The cluster runs over in-process LocalShardBackends; the
// rejecting replica is listed first for its shard, so the router would
// read from it if it could, and the query is the added graph itself, whose
// answer that replica lacks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine_test_util.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/line_server.h"
#include "server/shard_backend.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;

constexpr int kShards = 2;
constexpr double kSigma = 1.0;

/// A local replica that can fail shard_add — as a transport outage or as an
/// application rejection — or shard_filter (as an outage), and counts the
/// reads the router sends it.
class FaultyBackend : public LocalShardBackend {
 public:
  using LocalShardBackend::LocalShardBackend;

  int reads = 0;
  int filters = 0;
  int outages_left = 0;
  int filter_outages_left = 0;
  bool reject_adds = false;

 protected:
  Result<JsonValue> Exchange(const JsonValue& request) override {
    const std::string op = request.GetStringOr("op", "");
    if (op == "shard_filter" || op == "shard_refine") ++reads;
    if (op == "shard_filter") {
      ++filters;
      if (filter_outages_left > 0) {
        --filter_outages_left;
        return Status::Unavailable("injected outage");
      }
    }
    if (op == "shard_add" && outages_left > 0) {
      --outages_left;
      return Status::Unavailable("injected outage");
    }
    if (op == "shard_add" && reject_adds) {
      return ErrorReply(Status::InvalidArgument("injected rejection"));
    }
    return LocalShardBackend::Exchange(request);
  }
};

class ClusterQuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FragmentIndexOptions iopt;
    iopt.max_fragment_edges = 4;
    auto index =
        ShardedFragmentIndex::Build(fx_.db, fx_.features, iopt, kShards);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    PisOptions popt;
    popt.sigma = kSigma;
    auto make_host = [&] {
      return std::make_unique<EngineHost>(fx_.db, index.value(), popt);
    };
    oracle_ = make_host();
    // Shard 0: the faulty replica (preferred) and a healthy one. Shard 1:
    // one healthy replica. Every replica holds the whole index and serves
    // its shards of it.
    faulty_host_ = make_host();
    healthy_host_ = make_host();
    std::vector<std::unique_ptr<ShardBackend>> backends;
    auto faulty = std::make_unique<FaultyBackend>(faulty_host_.get(),
                                                  std::vector<int>{0},
                                                  "faulty");
    faulty_ = faulty.get();
    backends.push_back(std::move(faulty));
    backends.push_back(std::make_unique<LocalShardBackend>(
        healthy_host_.get(), std::vector<int>{0, 1}, "healthy"));
    ClusterEngineOptions copt;
    copt.options = popt;
    copt.metrics = &metrics_;
    cluster_ = std::make_unique<ClusterEngine>(
        std::move(backends), std::vector<std::vector<int>>{{0}, {0, 1}},
        copt);
    ASSERT_TRUE(cluster_->Bootstrap().ok());
  }

  /// Adds a graph through the router and the oracle; returns it.
  Graph AddOne() {
    const Graph g = fx_.db.graphs().at(next_++);
    auto want = oracle_->AddGraph(g);
    EXPECT_TRUE(want.ok());
    auto got = cluster_->AddGraph(g);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (want.ok() && got.ok()) {
      EXPECT_EQ(got.value(), want.value());
    }
    return g;
  }

  void ExpectOracleAnswers(const Graph& query) {
    auto want = oracle_->Search(query);
    auto got = cluster_->Search(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().answers, want.value().answers);
    EXPECT_EQ(got.value().candidates, want.value().candidates);
  }

  bool FaultyQuarantined() {
    const JsonValue stats = cluster_->StatsJson();
    return stats.Find("endpoints")->at(0).GetBoolOr("quarantined", false);
  }

  int64_t QuarantineGauge() {
    return metrics_
        .GetGauge("pis_cluster_replica_quarantined", "",
                  {{"endpoint", "faulty"}})
        ->value();
  }

  EngineFixture fx_{30, 61, 4, DistanceSpec::EdgeMutation(), 3};
  MetricsRegistry metrics_;
  std::unique_ptr<EngineHost> oracle_;
  std::unique_ptr<EngineHost> faulty_host_;
  std::unique_ptr<EngineHost> healthy_host_;
  FaultyBackend* faulty_ = nullptr;
  std::unique_ptr<ClusterEngine> cluster_;
  size_t next_ = 0;
};

TEST_F(ClusterQuarantineTest, RejectedFirstDeliveryQuarantines) {
  // Healthy at first: the preferred replica serves shard 0's reads.
  ExpectOracleAnswers(fx_.db.graphs().at(3));
  EXPECT_GT(faulty_->reads, 0);
  EXPECT_FALSE(FaultyQuarantined());
  EXPECT_EQ(QuarantineGauge(), 0);

  // New graphs go to the least-loaded shard, ties to shard 0.
  faulty_->reject_adds = true;
  const Graph added = AddOne();
  EXPECT_TRUE(FaultyQuarantined());
  EXPECT_EQ(QuarantineGauge(), 1);

  faulty_->reads = 0;
  ExpectOracleAnswers(added);
  ExpectOracleAnswers(fx_.db.graphs().at(7));
  // Sticky: neither a probe nor a later accepted write brings it back.
  faulty_->reject_adds = false;
  cluster_->ProbeOnce();
  AddOne();
  AddOne();
  ExpectOracleAnswers(added);
  EXPECT_EQ(faulty_->reads, 0);
  EXPECT_TRUE(FaultyQuarantined());
}

TEST_F(ClusterQuarantineTest, RejectedCatchUpQuarantines) {
  // The first delivery fails in transit, so the op waits in the catch-up
  // queue and the replica leaves reads until it drains.
  faulty_->outages_left = 1;
  const Graph added = AddOne();
  EXPECT_FALSE(FaultyQuarantined());
  faulty_->reads = 0;
  ExpectOracleAnswers(added);
  EXPECT_EQ(faulty_->reads, 0);

  // The replay is rejected: the op is dropped and the queue empties, but
  // the replica must not become readable again.
  faulty_->reject_adds = true;
  cluster_->ProbeOnce();
  EXPECT_TRUE(FaultyQuarantined());
  EXPECT_EQ(QuarantineGauge(), 1);
  EXPECT_EQ(cluster_->Stats().endpoints[0].pending_ops, 0u);
  ExpectOracleAnswers(added);
  ExpectOracleAnswers(fx_.db.graphs().at(11));
  EXPECT_EQ(faulty_->reads, 0);
}

// Round 1 fails over per endpoint group: when the replica a group asked
// drops out, only that group's shards are asked again (of the backup), and
// the group that answered is not asked twice.
TEST(ClusterFailoverTest, ResendsOnlyTheFailedGroup) {
  EngineFixture fx(30, 61, 4, DistanceSpec::EdgeMutation(), 3);
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 4;
  auto index = ShardedFragmentIndex::Build(fx.db, fx.features, iopt, kShards);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  PisOptions popt;
  popt.sigma = kSigma;
  EngineHost oracle(fx.db, index.value(), popt);
  // Shard 0: a preferred replica and its backup; shard 1: one replica.
  std::vector<std::unique_ptr<EngineHost>> hosts;
  std::vector<FaultyBackend*> replicas;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  const std::vector<std::vector<int>> serves = {{0}, {0}, {1}};
  const char* names[] = {"preferred", "backup", "other"};
  for (size_t e = 0; e < serves.size(); ++e) {
    hosts.push_back(std::make_unique<EngineHost>(fx.db, index.value(), popt));
    auto backend = std::make_unique<FaultyBackend>(hosts.back().get(),
                                                   serves[e], names[e]);
    replicas.push_back(backend.get());
    backends.push_back(std::move(backend));
  }
  ClusterEngineOptions copt;
  copt.options = popt;
  MetricsRegistry metrics;
  copt.metrics = &metrics;
  ClusterEngine cluster(std::move(backends), serves, copt);
  ASSERT_TRUE(cluster.Bootstrap().ok());

  replicas[0]->filter_outages_left = 1;
  const Graph& query = fx.db.graphs().at(3);
  auto want = oracle.Search(query);
  auto got = cluster.Search(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().answers, want.value().answers);
  EXPECT_EQ(got.value().candidates, want.value().candidates);
  EXPECT_EQ(replicas[0]->filters, 1);  // the failed attempt
  EXPECT_EQ(replicas[1]->filters, 1);  // shard 0, re-sent
  EXPECT_EQ(replicas[2]->filters, 1);  // shard 1, answered at once
}

}  // namespace
}  // namespace pis
