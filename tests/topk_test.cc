#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "mining/gspan.h"

namespace pis {
namespace {

struct Fixture {
  GraphDatabase db;
  Result<ShardedFragmentIndex> index = Status::Internal("unbuilt");

  explicit Fixture(uint64_t seed, int db_size = 30, int num_shards = 1) {
    MoleculeGeneratorOptions gopt;
    gopt.seed = seed;
    gopt.mean_vertices = 14;
    gopt.max_vertices = 40;
    MoleculeGenerator gen(gopt);
    db = gen.Generate(db_size);
    GraphDatabase skeletons;
    for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
    GspanOptions mine;
    mine.min_support = 3;
    mine.max_edges = 4;
    auto patterns = MineFrequentSubgraphs(skeletons, mine);
    EXPECT_TRUE(patterns.ok());
    std::vector<Graph> features;
    for (const Pattern& p : patterns.value()) features.push_back(p.graph);
    FragmentIndexOptions opts;
    opts.max_fragment_edges = 4;
    index = ShardedFragmentIndex::Build(db, features, opts, num_shards);
    EXPECT_TRUE(index.ok());
  }

  // Oracle: all (gid, distance) pairs, sorted.
  std::vector<std::pair<int, double>> Oracle(const Graph& query) const {
    auto model = index.value().options().spec.MakeCostModel();
    std::vector<std::pair<int, double>> all;
    for (int gid = 0; gid < db.size(); ++gid) {
      double d = MinSuperimposedDistance(query, db.at(gid), *model);
      if (d != kInfiniteDistance) all.emplace_back(gid, d);
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    return all;
  }
};

TEST(TopKTest, RejectsBadOptions) {
  Fixture fx(1);
  Graph q;
  q.AddVertex(kNoLabel);
  q.AddVertex(kNoLabel);
  ASSERT_TRUE(q.AddEdge(0, 1, 1).ok());
  TopKOptions bad;
  bad.k = 0;
  EXPECT_FALSE(TopKSearch(fx.db, fx.index.value(), q, bad).ok());
  bad.k = 1;
  bad.growth = 1.0;
  EXPECT_FALSE(TopKSearch(fx.db, fx.index.value(), q, bad).ok());
}

// Regression: these option combinations used to hang the σ-expansion loop
// (σ pinned at 0 forever) or report answers beyond max_sigma; they must be
// rejected up front instead.
TEST(TopKTest, RejectsDegenerateRadiusOptions) {
  Fixture fx(1);
  Graph q;
  q.AddVertex(kNoLabel);
  q.AddVertex(kNoLabel);
  ASSERT_TRUE(q.AddEdge(0, 1, 1).ok());

  TopKOptions spin;  // initial_sigma == 0 and first_step <= 0: infinite loop
  spin.initial_sigma = 0.0;
  spin.first_step = 0.0;
  auto r = TopKSearch(fx.db, fx.index.value(), q, spin);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  spin.first_step = -1.0;
  EXPECT_EQ(TopKSearch(fx.db, fx.index.value(), q, spin).status().code(),
            StatusCode::kInvalidArgument);

  TopKOptions negative;
  negative.initial_sigma = -0.5;
  EXPECT_EQ(TopKSearch(fx.db, fx.index.value(), q, negative).status().code(),
            StatusCode::kInvalidArgument);

  TopKOptions shrunk;  // max_sigma below the starting radius
  shrunk.initial_sigma = 2.0;
  shrunk.max_sigma = 1.0;
  EXPECT_EQ(TopKSearch(fx.db, fx.index.value(), q, shrunk).status().code(),
            StatusCode::kInvalidArgument);
}

class TopKOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKOracleTest, MatchesNaiveOrdering) {
  Fixture fx(100 + GetParam());
  QuerySampler sampler(&fx.db,
                       {.seed = 50 + static_cast<uint64_t>(GetParam()),
                        .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  auto oracle = fx.Oracle(query.value());
  for (int k : {1, 3, 10}) {
    TopKOptions options;
    options.k = k;
    auto result = TopKSearch(fx.db, fx.index.value(), query.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    size_t expected = std::min<size_t>(k, oracle.size());
    ASSERT_EQ(result.value().results.size(), expected) << "k=" << k;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(result.value().results[i].first, oracle[i].first)
          << "k=" << k << " rank " << i;
      EXPECT_DOUBLE_EQ(result.value().results[i].second, oracle[i].second);
    }
    // Memoization means verifications never exceed the database size per
    // distinct radius... conservatively: bounded by rounds * db size.
    EXPECT_LE(result.value().verifications,
              static_cast<size_t>(fx.db.size()) * result.value().rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKOracleTest, ::testing::Range(0, 8));

TEST(TopKTest, MaxSigmaBoundsResults) {
  Fixture fx(7);
  QuerySampler sampler(&fx.db, {.seed = 9, .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  TopKOptions options;
  options.k = 1000;  // more than the database can provide
  options.max_sigma = 1.0;
  auto result = TopKSearch(fx.db, fx.index.value(), query.value(), options);
  ASSERT_TRUE(result.ok());
  for (const auto& [gid, d] : result.value().results) {
    EXPECT_LE(d, 1.0);
  }
  EXPECT_LE(result.value().final_sigma, 1.0);
}

// Sharding changes only how the index is stored: every round filters to the
// same global candidates, so the results, the σ schedule, and even the
// verification count match the one-shard index.
TEST(TopKTest, ThreeShardsMatchOneShard) {
  Fixture one(7);
  Fixture three(7, 30, 3);
  ASSERT_TRUE(one.index.ok() && three.index.ok());
  ASSERT_EQ(three.index.value().num_shards(), 3);
  QuerySampler sampler(&one.db, {.seed = 11, .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  for (int k : {1, 5, 12}) {
    TopKOptions options;
    options.k = k;
    auto want = TopKSearch(one.db, one.index.value(), query.value(), options);
    auto got = TopKSearch(three.db, three.index.value(), query.value(), options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().results, want.value().results) << "k=" << k;
    EXPECT_EQ(got.value().rounds, want.value().rounds);
    EXPECT_EQ(got.value().final_sigma, want.value().final_sigma);
    EXPECT_EQ(got.value().verifications, want.value().verifications);
  }
}

TEST(TopKTest, ZeroInitialSigmaFindsExactMatchesFirst) {
  Fixture fx(13);
  QuerySampler sampler(&fx.db, {.seed = 21, .strip_vertex_labels = true});
  auto query = sampler.Sample(6);
  ASSERT_TRUE(query.ok());
  TopKOptions options;
  options.k = 1;
  options.initial_sigma = 0.0;
  auto result = TopKSearch(fx.db, fx.index.value(), query.value(), options);
  ASSERT_TRUE(result.ok());
  // The query was sampled from the database: its host matches at distance 0.
  ASSERT_EQ(result.value().results.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().results[0].second, 0.0);
  EXPECT_EQ(result.value().rounds, 1);
}

}  // namespace
}  // namespace pis
