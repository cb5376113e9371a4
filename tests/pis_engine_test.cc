// End-to-end correctness of the PIS engine: soundness and completeness
// against the naive scan, candidate-set containment versus topoPrune, and
// the Eq. 2 lower-bound property.
#include "core/pis.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/naive_search.h"
#include "core/topo_prune.h"
#include "distance/superimposed.h"
#include "engine_test_util.h"
#include "graph/query_sampler.h"
#include "mining/pipeline.h"

namespace pis {
namespace {

// The shared engine fixture: a one-shard index over a generated database.
using Fixture = ::pis::testing::EngineFixture;

TEST(PisEngineTest, AnswersMatchNaiveScan) {
  Fixture fx(40, 11);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  QuerySampler sampler(&fx.db, {.seed = 5, .strip_vertex_labels = true});
  int nonempty = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto query = sampler.Sample(8);
    ASSERT_TRUE(query.ok());
    auto pis = engine.Search(query.value());
    ASSERT_TRUE(pis.ok()) << pis.status().ToString();
    SearchResult naive =
        NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 2);
    EXPECT_EQ(pis.value().answers, naive.answers) << "trial " << trial;
    if (!naive.answers.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0) << "workload produced no answers; test is vacuous";
}

// Pass 1 issues one range query per enumerated fragment and pass 2 one per
// partition fragment (the shard-local refine re-issues them instead of
// caching pass-1 maps), so the physical query count is exactly their sum.
TEST(PisEngineTest, RangeQueriesCountBothPasses) {
  Fixture fx(40, 11);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  QuerySampler sampler(&fx.db, {.seed = 13, .strip_vertex_labels = true});
  int with_partition = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto query = sampler.Sample(8);
    ASSERT_TRUE(query.ok());
    auto filtered = engine.Filter(query.value());
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    const QueryStats& stats = filtered.value().stats;
    EXPECT_EQ(stats.range_queries,
              stats.fragments_enumerated + stats.partition_size);
    if (stats.partition_size > 0) ++with_partition;
  }
  EXPECT_GT(with_partition, 0)
      << "no query selected a partition; test is vacuous";
}

TEST(PisEngineTest, CandidatesContainAnswersAndSubsetTopoPrune) {
  Fixture fx(40, 23);
  PisOptions options;
  options.sigma = 1;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  TopoPruneEngine topo(&fx.db, &fx.index.value());
  QuerySampler sampler(&fx.db, {.seed = 9, .strip_vertex_labels = true});
  for (int trial = 0; trial < 8; ++trial) {
    auto query = sampler.Sample(10);
    ASSERT_TRUE(query.ok());
    auto filtered = engine.Filter(query.value());
    ASSERT_TRUE(filtered.ok());
    auto topo_candidates = topo.Filter(query.value(), nullptr);
    ASSERT_TRUE(topo_candidates.ok());
    // PIS candidates ⊆ topoPrune candidates (PIS adds distance pruning).
    EXPECT_TRUE(std::includes(
        topo_candidates.value().begin(), topo_candidates.value().end(),
        filtered.value().candidates.begin(), filtered.value().candidates.end()));
    // No false dismissal: every true answer is a PIS candidate.
    SearchResult naive =
        NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 1);
    EXPECT_TRUE(std::includes(filtered.value().candidates.begin(),
                              filtered.value().candidates.end(),
                              naive.answers.begin(), naive.answers.end()));
  }
}

TEST(PisEngineTest, PartitionIsVertexDisjoint) {
  Fixture fx(30, 31);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  QuerySampler sampler(&fx.db, {.seed = 17, .strip_vertex_labels = true});
  for (int trial = 0; trial < 5; ++trial) {
    auto query = sampler.Sample(12);
    ASSERT_TRUE(query.ok());
    auto filtered = engine.Filter(query.value());
    ASSERT_TRUE(filtered.ok());
    std::vector<bool> used(query.value().NumVertices(), false);
    for (int fi : filtered.value().partition) {
      for (VertexId v : filtered.value().fragments[fi].vertices) {
        EXPECT_FALSE(used[v]) << "partition fragments share vertex " << v;
        used[v] = true;
      }
    }
  }
}

TEST(PisEngineTest, LowerBoundHolds) {
  // Eq. 2: sum of partition fragment distances <= true superimposed
  // distance, for every database graph that contains the query.
  Fixture fx(25, 47);
  PisOptions options;
  options.sigma = 3;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  auto model = fx.index.value().options().spec.MakeCostModel();
  QuerySampler sampler(&fx.db, {.seed = 29, .strip_vertex_labels = true});
  for (int trial = 0; trial < 5; ++trial) {
    auto query = sampler.Sample(9);
    ASSERT_TRUE(query.ok());
    auto filtered = engine.Filter(query.value());
    ASSERT_TRUE(filtered.ok());
    for (int gid = 0; gid < fx.db.size(); ++gid) {
      double truth = MinSuperimposedDistance(query.value(), fx.db.at(gid), *model);
      if (truth > options.sigma) continue;  // only bounded graphs checked
      double bound = 0;
      for (int fi : filtered.value().partition) {
        Graph frag_graph;  // rebuild fragment distance via index range query
        // Use the index directly: minimum distance for this fragment/graph.
        double min_d = kInfiniteDistance;
        ASSERT_TRUE(fx.index.value()
                        .shard(0)
                        .RangeQuery(filtered.value().fragments[fi].prepared,
                                    options.sigma,
                                    [&](int g2, double d) {
                                      if (g2 == gid) min_d = std::min(min_d, d);
                                    })
                        .ok());
        ASSERT_NE(min_d, kInfiniteDistance);
        bound += min_d;
      }
      EXPECT_LE(bound, truth + 1e-9) << "gid " << gid;
    }
  }
}

TEST(PisEngineTest, SigmaZeroIsExactLabeledSearch) {
  Fixture fx(30, 53);
  PisOptions options;
  options.sigma = 0;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  QuerySampler sampler(&fx.db, {.seed = 41, .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  auto pis = engine.Search(query.value());
  ASSERT_TRUE(pis.ok());
  SearchResult naive =
      NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 0);
  EXPECT_EQ(pis.value().answers, naive.answers);
}

TEST(PisEngineTest, AllPartitionAlgorithmsAreSound) {
  Fixture fx(25, 61);
  QuerySampler sampler(&fx.db, {.seed = 3, .strip_vertex_labels = true});
  auto query = sampler.Sample(10);
  ASSERT_TRUE(query.ok());
  SearchResult naive =
      NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 2);
  for (PartitionAlgorithm algo :
       {PartitionAlgorithm::kGreedy, PartitionAlgorithm::kEnhancedGreedy,
        PartitionAlgorithm::kExact, PartitionAlgorithm::kSingleBest}) {
    PisOptions options;
    options.sigma = 2;
    options.partition_algorithm = algo;
    PisEngine engine(&fx.db, &fx.index.value(), options);
    auto pis = engine.Search(query.value());
    ASSERT_TRUE(pis.ok());
    EXPECT_EQ(pis.value().answers, naive.answers)
        << "algorithm " << static_cast<int>(algo);
  }
}

TEST(PisEngineTest, LinearDistanceEndToEnd) {
  Fixture fx(25, 71, 3, DistanceSpec::EdgeLinear());
  PisOptions options;
  options.sigma = 0.15;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  QuerySampler sampler(&fx.db, {.seed = 13, .strip_vertex_labels = true});
  int nonempty = 0;
  for (int trial = 0; trial < 6; ++trial) {
    auto query = sampler.Sample(6);
    ASSERT_TRUE(query.ok());
    auto pis = engine.Search(query.value());
    ASSERT_TRUE(pis.ok());
    SearchResult naive = NaiveSearch(fx.db, query.value(),
                                     fx.index.value().options().spec, 0.15);
    EXPECT_EQ(pis.value().answers, naive.answers);
    if (!naive.answers.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0);
}

TEST(PisEngineTest, TopoPruneMatchesNaiveAnswersToo) {
  Fixture fx(30, 83);
  TopoPruneEngine topo(&fx.db, &fx.index.value());
  QuerySampler sampler(&fx.db, {.seed = 19, .strip_vertex_labels = true});
  for (int trial = 0; trial < 5; ++trial) {
    auto query = sampler.Sample(8);
    ASSERT_TRUE(query.ok());
    auto result = topo.Search(query.value(), 2);
    ASSERT_TRUE(result.ok());
    SearchResult naive =
        NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 2);
    EXPECT_EQ(result.value().answers, naive.answers);
  }
}

TEST(PisEngineTest, EpsilonFilterKeepsSoundness) {
  Fixture fx(30, 97);
  QuerySampler sampler(&fx.db, {.seed = 23, .strip_vertex_labels = true});
  auto query = sampler.Sample(10);
  ASSERT_TRUE(query.ok());
  SearchResult naive =
      NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 2);
  for (double epsilon : {0.0, 0.1, 0.5}) {
    PisOptions options;
    options.sigma = 2;
    options.epsilon = epsilon;
    PisEngine engine(&fx.db, &fx.index.value(), options);
    auto pis = engine.Search(query.value());
    ASSERT_TRUE(pis.ok());
    EXPECT_EQ(pis.value().answers, naive.answers) << "epsilon " << epsilon;
  }
}

TEST(PisEngineTest, LambdaVariantsKeepSoundness) {
  Fixture fx(30, 101);
  QuerySampler sampler(&fx.db, {.seed = 37, .strip_vertex_labels = true});
  auto query = sampler.Sample(10);
  ASSERT_TRUE(query.ok());
  SearchResult naive =
      NaiveSearch(fx.db, query.value(), fx.index.value().options().spec, 2);
  for (double lambda : {0.5, 1.0, 2.0}) {
    PisOptions options;
    options.sigma = 2;
    options.lambda = lambda;
    PisEngine engine(&fx.db, &fx.index.value(), options);
    auto pis = engine.Search(query.value());
    ASSERT_TRUE(pis.ok());
    EXPECT_EQ(pis.value().answers, naive.answers) << "lambda " << lambda;
  }
}

// At the scale where rings and the certificate's tree bound come into play:
// 16-edge queries over ~200 generated molecules, features mined as the
// repository benchmark mines them, on one shard and on three. Every graph
// pass 2 drops must be one NaiveSearch does not answer.
class PisEngineQ16Test : public ::testing::TestWithParam<int> {};

TEST_P(PisEngineQ16Test, AnswersMatchNaiveScan) {
  MoleculeGeneratorOptions generate;
  generate.seed = 29;
  const GraphDatabase db = MoleculeGenerator(generate).Generate(200);
  auto features = MineDiscriminativeFeatures(db, 4, 0.05, 1.0);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 4;
  auto index =
      ShardedFragmentIndex::Build(db, features.value(), iopt, GetParam());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&db, &index.value(), options);
  QuerySampler sampler(&db, {.seed = 31, .strip_vertex_labels = true});
  auto queries = sampler.SampleSet(16, 24);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  size_t answers = 0;
  size_t candidates = 0;
  for (size_t i = 0; i < queries.value().size(); ++i) {
    const Graph& query = queries.value()[i];
    ASSERT_EQ(query.NumEdges(), 16);
    auto pis = engine.Search(query);
    ASSERT_TRUE(pis.ok()) << pis.status().ToString();
    SearchResult naive = NaiveSearch(db, query, index.value().options().spec,
                                     options.sigma);
    EXPECT_EQ(pis.value().answers, naive.answers) << "query " << i;
    answers += naive.answers.size();
    candidates += pis.value().candidates.size();
  }
  EXPECT_GT(answers, 0u) << "workload produced no answers; test is vacuous";
  EXPECT_GT(candidates, answers) << "no candidate left to reject";
}

INSTANTIATE_TEST_SUITE_P(Shards, PisEngineQ16Test, ::testing::Values(1, 3));

}  // namespace
}  // namespace pis
