#include "mining/gspan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "canonical/min_dfs.h"
#include "graph/generator.h"
#include "index/fragment_enum.h"
#include "isomorphism/vf2.h"
#include "mining/feature_selector.h"
#include "mining/pipeline.h"
#include "util/random.h"

namespace pis {
namespace {

Graph Path(int edges, Label vlabel = 1, Label elabel = 1) {
  Graph g;
  g.AddVertex(vlabel);
  for (int i = 0; i < edges; ++i) {
    g.AddVertex(vlabel);
    EXPECT_TRUE(g.AddEdge(i, i + 1, elabel).ok());
  }
  return g;
}

Graph Cycle(int n, Label vlabel = 1, Label elabel = 1) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddVertex(vlabel);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, (i + 1) % n, elabel).ok());
  }
  return g;
}

// Oracle: frequent structures by exhaustive fragment enumeration +
// canonicalization of each fragment's skeleton.
std::map<std::string, std::set<int>> BruteForceFrequent(const GraphDatabase& db,
                                                        int max_edges) {
  std::map<std::string, std::set<int>> supports;
  for (int gid = 0; gid < db.size(); ++gid) {
    EnumerateConnectedEdgeSubgraphs(db.at(gid), {1, max_edges},
                                    [&](const std::vector<EdgeId>& subset) {
      Graph sub = db.at(gid).EdgeSubgraph(subset).Skeleton();
      CanonicalOptions opts;
      opts.first_embedding_only = true;
      auto form = MinDfsCode(sub, opts);
      EXPECT_TRUE(form.ok());
      supports[form.value().Key()].insert(gid);
      return true;
    });
  }
  return supports;
}

TEST(GspanTest, SingleGraphSingleEdge) {
  GraphDatabase db;
  db.Add(Path(1, 1, 5));
  GspanOptions options;
  options.min_support = 1;
  options.max_edges = 1;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  ASSERT_EQ(patterns.value().size(), 1u);
  EXPECT_EQ(patterns.value()[0].support(), 1);
  EXPECT_EQ(patterns.value()[0].graph.NumEdges(), 1);
  // Patterns are bare structures: the edge's label 5 is not kept.
  EXPECT_EQ(patterns.value()[0].graph.GetEdge(0).label, kNoLabel);
}

TEST(GspanTest, SupportCountsGraphsNotEmbeddings) {
  GraphDatabase db;
  db.Add(Cycle(6));  // many embeddings of a 2-edge path
  db.Add(Path(2));
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 2;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  // Frequent in both: single edge, 2-edge path.
  ASSERT_EQ(patterns.value().size(), 2u);
  for (const Pattern& p : patterns.value()) {
    EXPECT_EQ(p.support(), 2);
    EXPECT_EQ(p.support_set, (std::vector<int>{0, 1}));
  }
}

TEST(GspanTest, MinSupportFilters) {
  GraphDatabase db;
  db.Add(Cycle(3));
  db.Add(Cycle(3));
  db.Add(Path(3));
  GspanOptions options;
  options.min_support = 3;
  options.max_edges = 3;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  // Triangle only in 2 graphs; paths up to 2 edges are in all 3 (the
  // 3-edge path is not in the triangle).
  std::set<std::string> keys;
  for (const Pattern& p : patterns.value()) {
    EXPECT_GE(p.support(), 3);
    keys.insert(p.code.ToKey());
  }
  EXPECT_EQ(patterns.value().size(), 2u);  // 1-edge, 2-edge path
}

TEST(GspanTest, PatternsAreCanonicalAndUnique) {
  Rng rng(7);
  GraphDatabase db;
  for (int i = 0; i < 8; ++i) {
    RandomGraphOptions options;
    options.num_vertices = 7;
    options.num_edges = 9;
    options.vertex_alphabet = 2;
    options.edge_alphabet = 2;
    db.Add(GenerateRandomConnectedGraph(options, &rng));
  }
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  std::set<std::string> keys;
  for (const Pattern& p : patterns.value()) {
    auto form = MinDfsCode(p.graph);
    ASSERT_TRUE(form.ok());
    EXPECT_EQ(p.code, form.value().code);
    EXPECT_TRUE(keys.insert(p.code.ToKey()).second) << "duplicate pattern";
  }
}

TEST(GspanTest, MaxPatternsCap) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(20);
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 3;
  options.max_patterns = 5;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  EXPECT_EQ(patterns.value().size(), 5u);
}

// Asserts that the miner finds exactly the brute-force oracle's patterns of
// min_edges to max_edges edges with support >= min_support, with the same
// support sets, at 1, 2 and 4 threads; and that max_patterns keeps the
// first patterns of the full report.
void ExpectMatchesBruteForce(const GraphDatabase& db, int max_edges,
                             int min_support, int min_edges = 1) {
  auto oracle = BruteForceFrequent(db, max_edges);

  GspanOptions options;
  options.min_support = min_support;
  options.max_edges = max_edges;
  options.min_edges = min_edges;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());

  std::map<std::string, std::vector<int>> mined;
  for (const Pattern& p : patterns.value()) {
    EXPECT_GE(p.num_edges(), min_edges);
    // Recompute the key with vertex count prefix for comparison.
    CanonicalOptions opts;
    opts.first_embedding_only = true;
    auto form = MinDfsCode(p.graph, opts);
    ASSERT_TRUE(form.ok());
    mined[form.value().Key()] = p.support_set;
  }
  size_t expected_count = 0;
  for (const auto& [key, support] : oracle) {
    if (static_cast<int>(support.size()) < min_support) continue;
    // One "(from,to,labels)" group per code entry, so per edge.
    if (std::count(key.begin(), key.end(), '(') < min_edges) continue;
    ++expected_count;
    ASSERT_EQ(mined.count(key), 1u) << "missing pattern " << key;
    std::vector<int> expected_support(support.begin(), support.end());
    EXPECT_EQ(mined[key], expected_support);
  }
  EXPECT_EQ(mined.size(), expected_count);

  for (int threads : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    GspanOptions parallel = options;
    parallel.num_threads = threads;
    auto again = MineFrequentSubgraphs(db, parallel);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again.value().size(), patterns.value().size());
    for (size_t i = 0; i < patterns.value().size(); ++i) {
      EXPECT_EQ(again.value()[i].code, patterns.value()[i].code);
      EXPECT_EQ(again.value()[i].support_set, patterns.value()[i].support_set);
    }
  }
  for (size_t cap : {size_t{1}, patterns.value().size() / 2}) {
    if (cap == 0) continue;
    SCOPED_TRACE(testing::Message() << "max_patterns=" << cap);
    GspanOptions capped = options;
    capped.max_patterns = cap;
    auto first = MineFrequentSubgraphs(db, capped);
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.value().size(), cap);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(first.value()[i].code, patterns.value()[i].code);
      EXPECT_EQ(first.value()[i].support_set, patterns.value()[i].support_set);
    }
  }
}

GraphDatabase RandomLabeledDb(int param) {
  Rng rng(param * 13 + 5);
  GraphDatabase db;
  for (int i = 0; i < 6; ++i) {
    RandomGraphOptions options;
    options.num_vertices = 5 + param % 3;
    options.num_edges = options.num_vertices + 2;
    options.vertex_alphabet = 2;
    options.edge_alphabet = 2;
    db.Add(GenerateRandomConnectedGraph(options, &rng));
  }
  return db;
}

// Property: the miner equals brute-force enumeration (pattern keys and
// supports) on random labeled databases, whose labels it ignores, and on
// skeleton databases.
class GspanOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(GspanOracleTest, MatchesBruteForce) {
  ExpectMatchesBruteForce(RandomLabeledDb(GetParam()), /*max_edges=*/4,
                          /*min_support=*/1 + GetParam() % 3);
}

// Skeletons have one label, so every pattern differs only in its
// structure. max_edges runs 1-6, so every size is the largest of some
// instance.
TEST_P(GspanOracleTest, SkeletonsMatchBruteForce) {
  const GraphDatabase labeled = RandomLabeledDb(GetParam());
  GraphDatabase db;
  for (const Graph& g : labeled.graphs()) db.Add(g.Skeleton());
  ExpectMatchesBruteForce(db, /*max_edges=*/1 + GetParam() % 6,
                          /*min_support=*/1 + GetParam() % 3);
}

// min_edges > 1 drops the small patterns from the report only.
TEST_P(GspanOracleTest, LargePatternsMatchBruteForce) {
  const int max_edges = 3 + GetParam() % 4;
  ExpectMatchesBruteForce(RandomLabeledDb(GetParam()), max_edges,
                          /*min_support=*/1 + GetParam() % 3,
                          /*min_edges=*/std::min(max_edges, 2 + GetParam() % 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GspanOracleTest, ::testing::Range(0, 15));

void ExpectSamePatterns(const std::vector<Pattern>& expected,
                        const std::vector<Pattern>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].code, expected[i].code) << "pattern " << i;
    EXPECT_EQ(actual[i].support_set, expected[i].support_set)
        << "pattern " << i;
  }
}

// Property: the parallel miner reports the same pattern vector (order,
// codes, support sets) at every thread count. 240 graphs make 15
// segments, enough for every worker to scan several.
class GspanParallelTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(GspanParallelTest, IdenticalAtAnyThreadCount) {
  const auto [seed, skeletons] = GetParam();
  MoleculeGeneratorOptions gen;
  gen.seed = seed;
  const GraphDatabase labeled = MoleculeGenerator(gen).Generate(240);
  GraphDatabase db;
  for (const Graph& g : labeled.graphs()) db.Add(skeletons ? g.Skeleton() : g);
  GspanOptions all;
  all.min_support = db.size() / 10;
  all.max_edges = 4;
  GspanOptions capped = all;
  capped.max_patterns = 7;
  GspanOptions large_only = all;
  large_only.min_edges = 3;
  for (const GspanOptions& base : {all, capped, large_only}) {
    auto sequential = MineFrequentSubgraphs(db, base);
    ASSERT_TRUE(sequential.ok());
    ASSERT_FALSE(sequential.value().empty());
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " max_patterns=" << base.max_patterns
                                      << " min_edges=" << base.min_edges);
      GspanOptions options = base;
      options.num_threads = threads;
      auto parallel = MineFrequentSubgraphs(db, options);
      ASSERT_TRUE(parallel.ok());
      ExpectSamePatterns(sequential.value(), parallel.value());
    }
  }
}

// Property: a labeled database mines like its skeletons: the miner reports
// exactly what mining the Skeleton() copies does (order, codes, support
// sets), at every thread count, whether the database carries labels or is
// already bare.
TEST_P(GspanParallelTest, UnlabeledMiningMatchesSkeletons) {
  const auto [seed, skeletons] = GetParam();
  MoleculeGeneratorOptions gen;
  gen.seed = seed;
  const GraphDatabase labeled = MoleculeGenerator(gen).Generate(240);
  GraphDatabase bare;
  for (const Graph& g : labeled.graphs()) bare.Add(g.Skeleton());
  GspanOptions options;
  options.min_support = bare.size() / 10;
  options.max_edges = 4;
  auto expected = MineFrequentSubgraphs(bare, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected.value().empty());
  for (int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    options.num_threads = threads;
    auto actual = MineFrequentSubgraphs(skeletons ? bare : labeled, options);
    ASSERT_TRUE(actual.ok());
    ExpectSamePatterns(expected.value(), actual.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Databases, GspanParallelTest,
                         ::testing::Combine(::testing::Values(uint64_t{1},
                                                              uint64_t{7}),
                                            ::testing::Bool()));

TEST(MiningPipelineTest, RejectsOutOfRangeMinSupport) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(10);
  for (double fraction : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), 1e30, -0.1,
                          1.5}) {
    auto features = MineDiscriminativeFeatures(db, 3, fraction, 1.0);
    EXPECT_EQ(features.status().code(), StatusCode::kInvalidArgument)
        << fraction;
  }
  EXPECT_TRUE(MineDiscriminativeFeatures(db, 3, 0.0, 1.0).ok());
  EXPECT_TRUE(MineDiscriminativeFeatures(db, 3, 1.0, 1.0).ok());
}

TEST(MiningPipelineTest, RejectsNonPositiveMaxFragmentEdges) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(10);
  for (int max_edges : {0, -3}) {
    auto features = MineDiscriminativeFeatures(db, max_edges, 0.1, 1.0);
    EXPECT_EQ(features.status().code(), StatusCode::kInvalidArgument)
        << max_edges;
  }
}

TEST(MiningPipelineTest, RejectsNonFiniteGamma) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(10);
  for (double gamma : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(SelectDiscriminativeFeatures({}, 10, {.gamma = gamma})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(MineDiscriminativeFeatures(db, 3, 0.1, gamma).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The pipeline's features do not depend on its thread count.
TEST(MiningPipelineTest, FeaturesIndependentOfThreads) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(60);
  auto one = MineDiscriminativeFeatures(db, 4, 0.1, 1.5, 1);
  auto four = MineDiscriminativeFeatures(db, 4, 0.1, 1.5, 4);
  ASSERT_TRUE(one.ok() && four.ok());
  ASSERT_EQ(one.value().size(), four.value().size());
  for (size_t i = 0; i < one.value().size(); ++i) {
    EXPECT_EQ(one.value()[i].NumEdges(), four.value()[i].NumEdges());
    auto a = MinDfsCode(one.value()[i]);
    auto b = MinDfsCode(four.value()[i]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().code, b.value().code) << "feature " << i;
  }
}

// The relative support is floored to a graph count without losing a graph
// to the product's rounding error: 0.29 * 100 evaluates to 28.999..., yet a
// pattern in exactly 29 of 100 graphs is frequent at 0.29, and one in 28 is
// not.
TEST(MiningPipelineTest, MinSupportFractionCountsExactly) {
  Graph claw;
  for (int i = 0; i < 4; ++i) claw.AddVertex(1);
  for (int leaf = 1; leaf < 4; ++leaf) {
    ASSERT_TRUE(claw.AddEdge(0, leaf, 1).ok());
  }
  GraphDatabase db;
  for (int i = 0; i < 29; ++i) db.Add(Cycle(3));
  for (int i = 0; i < 28; ++i) db.Add(claw);
  while (db.size() < 100) db.Add(Path(1));
  // The only 3-edge patterns: the triangle (3 vertices), the claw (4).
  auto has_3_edge_feature = [](const std::vector<Graph>& features,
                               int vertices) {
    return std::any_of(features.begin(), features.end(), [&](const Graph& f) {
      return f.NumEdges() == 3 && f.NumVertices() == vertices;
    });
  };
  auto at_29 = MineDiscriminativeFeatures(db, 3, 0.29, 1.0);
  ASSERT_TRUE(at_29.ok());
  EXPECT_TRUE(has_3_edge_feature(at_29.value(), 3));
  EXPECT_FALSE(has_3_edge_feature(at_29.value(), 4));
  auto at_28 = MineDiscriminativeFeatures(db, 3, 0.28, 1.0);
  ASSERT_TRUE(at_28.ok());
  EXPECT_TRUE(has_3_edge_feature(at_28.value(), 4));
}

// Golden: the features pis_server mines by default (4 edges, 5% support,
// gamma 1) from 1000 seed-1 molecules, with their support counts, as the
// embedding-growing gSpan miner reported them.
TEST(MiningGoldenTest, SeedOneMoleculeFeatures) {
  MoleculeGeneratorOptions gen;
  gen.seed = 1;
  const GraphDatabase db = MoleculeGenerator(gen).Generate(1000);
  const std::vector<std::pair<std::string, int>> expected = {
      {"(0,1,0,0,0)", 1000},
      {"(0,1,0,0,0)(1,2,0,0,0)", 1000},
      {"(0,1,0,0,0)(1,2,0,0,0)(1,3,0,0,0)", 1000},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,0,0,0,0)", 100},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,3,0,0,0)", 1000},
      {"(0,1,0,0,0)(1,2,0,0,0)(1,3,0,0,0)(1,4,0,0,0)", 774},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,0,0,0,0)(2,3,0,0,0)", 100},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,3,0,0,0)(2,4,0,0,0)", 1000},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,3,0,0,0)(3,0,0,0,0)", 130},
      {"(0,1,0,0,0)(1,2,0,0,0)(2,3,0,0,0)(3,4,0,0,0)", 1000},
  };
  auto features = MineDiscriminativeFeatures(db, 4, 0.05, 1.0, 4);
  ASSERT_TRUE(features.ok());
  ASSERT_EQ(features.value().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    CanonicalOptions skeleton;
    skeleton.use_labels = false;
    auto form = MinDfsCode(features.value()[i], skeleton);
    ASSERT_TRUE(form.ok());
    EXPECT_EQ(form.value().code.ToKey(), expected[i].first) << "feature " << i;
  }
  // The same run, one step at a time, for the support counts.
  GspanOptions mine;
  mine.min_support = 50;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, mine);
  ASSERT_TRUE(patterns.ok());
  auto selected = SelectDiscriminativeFeatures(patterns.value(), db.size(),
                                               {.gamma = 1.0});
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected.value().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Pattern& p = patterns.value()[selected.value()[i]];
    EXPECT_EQ(p.code.ToKey(), expected[i].first) << "feature " << i;
    EXPECT_EQ(p.support(), expected[i].second) << "feature " << i;
  }
}

TEST(FeatureSelectorTest, GammaOneKeepsEverything) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(30);
  GspanOptions options;
  options.min_support = 5;
  options.max_edges = 3;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  FeatureSelectorOptions select;
  select.gamma = 1.0;
  auto selected = SelectDiscriminativeFeatures(patterns.value(), db.size(), select);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value().size(), patterns.value().size());
}

TEST(FeatureSelectorTest, LargerGammaSelectsFewer) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(60);
  GspanOptions options;
  options.min_support = 6;
  options.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  FeatureSelectorOptions loose;
  loose.gamma = 1.0;
  FeatureSelectorOptions tight;
  tight.gamma = 2.0;
  auto all = SelectDiscriminativeFeatures(patterns.value(), db.size(), loose);
  auto few = SelectDiscriminativeFeatures(patterns.value(), db.size(), tight);
  ASSERT_TRUE(all.ok() && few.ok());
  EXPECT_LE(few.value().size(), all.value().size());
  EXPECT_FALSE(few.value().empty());  // single edges always kept
}

TEST(FeatureSelectorTest, RejectsBadGamma) {
  EXPECT_FALSE(SelectDiscriminativeFeatures({}, 10, {.gamma = 0.5}).ok());
}

TEST(FeatureSelectorTest, MaxFeaturesCap) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(30);
  GspanOptions options;
  options.min_support = 3;
  options.max_edges = 3;
  auto patterns = MineFrequentSubgraphs(db, options);
  ASSERT_TRUE(patterns.ok());
  ASSERT_GT(patterns.value().size(), 3u);
  FeatureSelectorOptions select;
  select.gamma = 1.0;
  select.max_features = 3;
  auto selected = SelectDiscriminativeFeatures(patterns.value(), db.size(), select);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected.value().size(), 3u);
}

}  // namespace
}  // namespace pis
