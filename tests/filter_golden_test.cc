// Golden filter output: candidate lists, answers and every QueryStats
// counter of six sampled queries over 1-, 3- and 8-shard indexes, with
// tombstones and again after compaction, through both PisEngine and a
// ClusterEngine over in-process shard backends. The expected values were
// recorded from the implementation that merged every fragment's full
// (gid, distance) map before filtering. The sharded-vs-one-shard and
// cluster-vs-oracle suites compare two engines that share one filter, so
// they would drift together; this table is the independent reference.
// Pass 2 now also certifies each candidate against its own graph, so the
// recorded lists are the reference for the partition bound (Yp), and the
// certified lists beside them must be subsets with unchanged answers. The
// certified lists were re-recorded when the certificate gained its
// neighbourhood domains, when it gained its spanning-tree cost bound, and
// when that bound gained its outside pass and second round (each time
// lists shrank and no answer moved).
//
// range_queries is the one counter not pinned: the filter issues one
// range query per (fragment, shard) and the refine step one per
// (partition fragment, shard), so it must equal
// (fragments_enumerated + partition_size) x num_shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/shard_backend.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;
using ::pis::testing::SampleQueries;

constexpr double kSigma = 1.0;
constexpr int kRemoved[] = {3, 10, 17, 24, 41, 55};

/// One query's pinned output. `phase` 0 = tombstoned, 1 = compacted.
/// `partition_candidates` and `candidates_after_partition` are the recorded
/// candidate list and count (the filter then ended at the partition
/// bound); `certified` is the list pass 2 leaves since it also applies the
/// graph-local certificate, pinned when the certificate last changed.
struct GoldenRow {
  int phase;
  int query;
  std::vector<int> partition_candidates;
  std::vector<int> answers;
  size_t fragments_enumerated;
  size_t fragments_kept;
  size_t partition_size;
  double partition_weight;
  size_t candidates_after_intersection;
  size_t candidates_after_partition;
  size_t num_answers;
  std::vector<int> certified;
};

/// What one engine returned for one query.
struct Observed {
  int phase;
  int query;
  SearchResult result;
};

const EngineFixture& Fixture() {
  static const EngineFixture* fx =
      new EngineFixture(60, 4242, 4, DistanceSpec::EdgeMutation(), 3);
  return *fx;
}

const std::vector<Graph>& Queries() {
  static const std::vector<Graph>* queries =
      new std::vector<Graph>(SampleQueries(Fixture().db, 6, 10, 77));
  return *queries;
}

/// Builds a `num_shards` index over the fixture, removes kRemoved through a
/// ClusterEngine of one LocalShardBackend per shard, and searches every
/// query through PisEngine (`in_process`) and the cluster (`clustered`),
/// once tombstoned and once after compacting every shard.
void RunEngines(int num_shards, std::vector<Observed>* in_process,
                std::vector<Observed>* clustered) {
  const EngineFixture& fx = Fixture();
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 4;
  iopt.spec = DistanceSpec::EdgeMutation();
  auto index =
      ShardedFragmentIndex::Build(fx.db, fx.features, iopt, num_shards);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  PisOptions popt;
  popt.sigma = kSigma;
  EngineHost host(fx.db, index.MoveValue(), popt);

  std::vector<std::unique_ptr<ShardBackend>> backends;
  std::vector<std::vector<int>> shards_of;
  for (int s = 0; s < num_shards; ++s) {
    backends.push_back(std::make_unique<LocalShardBackend>(
        &host, std::vector<int>{s}, "local#" + std::to_string(s)));
    shards_of.push_back({s});
  }
  ClusterEngineOptions copt;
  copt.options = popt;
  ClusterEngine cluster(std::move(backends), std::move(shards_of), copt);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (int gid : kRemoved) ASSERT_TRUE(cluster.RemoveGraph(gid).ok());

  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      ASSERT_TRUE(host.Compact(0.0).ok());
    }
    for (size_t q = 0; q < Queries().size(); ++q) {
      auto local = host.snapshot()->engine.Search(Queries()[q]);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      in_process->push_back({phase, static_cast<int>(q), local.MoveValue()});
      auto remote = cluster.Search(Queries()[q]);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      clustered->push_back({phase, static_cast<int>(q), remote.MoveValue()});
    }
  }
}

const std::vector<GoldenRow>& Golden() {
  static const std::vector<GoldenRow> rows = {
      {0, 0, {1, 2, 4, 6, 7, 9, 12, 13, 14, 15, 16, 18, 19, 20, 22, 25,
       28, 31, 32, 34, 35, 37, 40, 42, 43, 44, 46, 50, 52, 56, 58},
       {7, 13, 14, 28, 40, 42, 44, 46, 50, 52},
       10, 6, 3, 1.2777777777777777, 54, 31, 10,
       {7, 13, 14, 28, 40, 42, 44, 46, 50, 52}},
      {0, 1, {0, 5, 6, 7, 8, 11, 12, 13, 16, 18, 19, 20, 21, 22, 23, 25,
       26, 27, 28, 29, 30, 32, 33, 36, 37, 38, 39, 40, 42, 45, 47, 48,
       49, 50, 51, 52, 53, 57, 58, 59},
       {7, 11, 20, 33, 48, 57},
       10, 2, 2, 0.51851851851851849, 54, 40, 6,
       {7, 11, 20, 33, 36, 48, 57}},
      {0, 2, {2, 4, 7, 9, 13, 16, 20, 32, 34, 37, 40, 42, 43, 44, 50, 56, 58},
       {4, 13, 20, 34, 42, 43, 44, 50},
       11, 10, 3, 1.7592592592592595, 17, 17, 8,
       {4, 13, 20, 34, 42, 43, 44, 50}},
      {0, 3, {1, 2, 4, 6, 7, 9, 12, 13, 14, 15, 16, 18, 19, 20, 22, 25,
       28, 31, 32, 34, 35, 37, 40, 42, 43, 44, 46, 50, 52, 56, 58},
       {13, 20, 22, 28, 40},
       10, 5, 3, 1.1111111111111112, 54, 31, 5,
       {13, 20, 22, 28, 40}},
      {0, 4, {6, 7, 11, 18, 19, 20, 21, 22, 23, 26, 34, 36, 38, 40, 45,
       47, 48, 49, 51, 54, 57},
       {48},
       11, 4, 1, 0.83333333333333337, 21, 21, 1,
       {48}},
      {0, 5, {0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 18, 19,
       20, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
       37, 38, 39, 40, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
       54, 56, 57, 58, 59},
       {0, 7, 11, 18, 29, 33, 36, 39, 45, 47, 48, 49, 50, 51, 57},
       10, 0, 0, 0, 54, 54, 15,
       {0, 7, 11, 18, 20, 29, 33, 36, 39, 40, 45, 47, 48, 49, 50, 51, 57}},
      {1, 0, {1, 2, 4, 6, 7, 9, 12, 13, 14, 15, 16, 18, 19, 20, 22, 25,
       28, 31, 32, 34, 35, 37, 40, 42, 43, 44, 46, 50, 52, 56, 58},
       {7, 13, 14, 28, 40, 42, 44, 46, 50, 52},
       10, 6, 3, 1.2777777777777777, 54, 31, 10,
       {7, 13, 14, 28, 40, 42, 44, 46, 50, 52}},
      {1, 1, {0, 5, 6, 7, 8, 11, 12, 13, 16, 18, 19, 20, 21, 22, 23, 25,
       26, 27, 28, 29, 30, 32, 33, 36, 37, 38, 39, 40, 42, 45, 47, 48,
       49, 50, 51, 52, 53, 57, 58, 59},
       {7, 11, 20, 33, 48, 57},
       10, 2, 2, 0.51851851851851849, 54, 40, 6,
       {7, 11, 20, 33, 36, 48, 57}},
      {1, 2, {2, 4, 7, 9, 13, 16, 20, 32, 34, 37, 40, 42, 43, 44, 50, 56, 58},
       {4, 13, 20, 34, 42, 43, 44, 50},
       11, 10, 3, 1.7592592592592595, 17, 17, 8,
       {4, 13, 20, 34, 42, 43, 44, 50}},
      {1, 3, {1, 2, 4, 6, 7, 9, 12, 13, 14, 15, 16, 18, 19, 20, 22, 25,
       28, 31, 32, 34, 35, 37, 40, 42, 43, 44, 46, 50, 52, 56, 58},
       {13, 20, 22, 28, 40},
       10, 5, 3, 1.1111111111111112, 54, 31, 5,
       {13, 20, 22, 28, 40}},
      {1, 4, {6, 7, 11, 18, 19, 20, 21, 22, 23, 26, 34, 36, 38, 40, 45,
       47, 48, 49, 51, 54, 57},
       {48},
       11, 4, 1, 0.83333333333333337, 21, 21, 1,
       {48}},
      {1, 5, {0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 18, 19,
       20, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
       37, 38, 39, 40, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
       54, 56, 57, 58, 59},
       {0, 7, 11, 18, 29, 33, 36, 39, 45, 47, 48, 49, 50, 51, 57},
       10, 0, 0, 0, 54, 54, 15,
       {0, 7, 11, 18, 20, 29, 33, 36, 39, 40, 45, 47, 48, 49, 50, 51, 57}},
  };
  return rows;
}

void ExpectGolden(const std::vector<Observed>& observed, int num_shards,
                  const char* engine) {
  ASSERT_EQ(observed.size(), Golden().size());
  for (size_t i = 0; i < observed.size(); ++i) {
    const GoldenRow& want = Golden()[i];
    const Observed& got = observed[i];
    SCOPED_TRACE(std::string(engine) + " shards=" +
                 std::to_string(num_shards) + " phase=" +
                 std::to_string(want.phase) + " query=" +
                 std::to_string(want.query));
    ASSERT_EQ(got.phase, want.phase);
    ASSERT_EQ(got.query, want.query);
    const QueryStats& stats = got.result.stats;
    // The certificate only removes: the pinned list lies inside the
    // recorded one, which still counts the partition bound's survivors.
    EXPECT_TRUE(std::includes(want.partition_candidates.begin(),
                              want.partition_candidates.end(),
                              want.certified.begin(), want.certified.end()));
    EXPECT_EQ(want.candidates_after_partition,
              want.partition_candidates.size());
    EXPECT_EQ(got.result.candidates, want.certified);
    EXPECT_EQ(got.result.answers, want.answers);
    EXPECT_EQ(stats.fragments_enumerated, want.fragments_enumerated);
    EXPECT_EQ(stats.fragments_kept, want.fragments_kept);
    EXPECT_EQ(stats.partition_size, want.partition_size);
    EXPECT_EQ(stats.partition_weight, want.partition_weight);
    EXPECT_EQ(stats.candidates_after_intersection,
              want.candidates_after_intersection);
    EXPECT_EQ(stats.candidates_after_partition,
              want.candidates_after_partition);
    EXPECT_EQ(stats.candidates_final, want.certified.size());
    EXPECT_EQ(stats.answers, want.num_answers);
    EXPECT_EQ(stats.range_queries,
              (stats.fragments_enumerated + stats.partition_size) *
                  static_cast<size_t>(num_shards));
  }
}

class FilterGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterGoldenTest, MatchesRecordedOutput) {
  const int num_shards = GetParam();
  std::vector<Observed> in_process;
  std::vector<Observed> clustered;
  RunEngines(num_shards, &in_process, &clustered);
  if (HasFatalFailure()) return;
  ExpectGolden(in_process, num_shards, "PisEngine");
  ExpectGolden(clustered, num_shards, "ClusterEngine");
}

INSTANTIATE_TEST_SUITE_P(Shards, FilterGoldenTest, ::testing::Values(1, 3, 8));

}  // namespace
}  // namespace pis
