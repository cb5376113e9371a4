// Tests for the verifier, naive/topoPrune engines, query-fragment
// enumeration, and QueryStats reporting.
#include <gtest/gtest.h>

#include "core/naive_search.h"
#include "core/query_fragments.h"
#include "core/stats.h"
#include "core/topo_prune.h"
#include "core/verifier.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "mining/gspan.h"

namespace pis {
namespace {

Graph Cycle(int n, Label elabel = 1) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddVertex(1);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, (i + 1) % n, elabel).ok());
  }
  return g;
}

TEST(VerifierTest, FiltersBySigmaAndReportsDistances) {
  GraphDatabase db;
  db.Add(Cycle(6, 1));  // distance 0
  Graph one = Cycle(6, 1);
  one.SetEdgeLabel(0, 2);
  db.Add(one);  // distance 1
  Graph three = Cycle(6, 1);
  three.SetEdgeLabel(0, 2);
  three.SetEdgeLabel(2, 2);
  three.SetEdgeLabel(4, 2);
  db.Add(three);  // distance 3
  db.Add(Cycle(5, 1));  // no embedding

  Graph query = Cycle(6, 1);
  VerifyResult result =
      VerifyCandidates(db, query, {0, 1, 2, 3}, DistanceSpec::EdgeMutation(), 1);
  EXPECT_EQ(result.answers, (std::vector<int>{0, 1}));
  // The verifier keeps no distances; the minimising search reports them.
  const auto model = DistanceSpec::EdgeMutation().MakeCostModel();
  EXPECT_DOUBLE_EQ(MinSuperimposedDistance(query, db.at(0), *model, 1), 0.0);
  EXPECT_DOUBLE_EQ(MinSuperimposedDistance(query, db.at(1), *model, 1), 1.0);
}

TEST(VerifierTest, RespectsCandidateSubset) {
  GraphDatabase db;
  db.Add(Cycle(6, 1));
  db.Add(Cycle(6, 1));
  Graph query = Cycle(6, 1);
  VerifyResult result =
      VerifyCandidates(db, query, {1}, DistanceSpec::EdgeMutation(), 2);
  EXPECT_EQ(result.answers, (std::vector<int>{1}));
}

TEST(NaiveSearchTest, FindsAllWithinSigma) {
  GraphDatabase db;
  db.Add(Cycle(6, 1));
  Graph mutated = Cycle(6, 1);
  mutated.SetEdgeLabel(0, 2);
  db.Add(mutated);
  db.Add(Cycle(4, 1));
  Graph query = Cycle(6, 1);
  SearchResult r0 = NaiveSearch(db, query, DistanceSpec::EdgeMutation(), 0);
  EXPECT_EQ(r0.answers, (std::vector<int>{0}));
  SearchResult r1 = NaiveSearch(db, query, DistanceSpec::EdgeMutation(), 1);
  EXPECT_EQ(r1.answers, (std::vector<int>{0, 1}));
  EXPECT_EQ(r1.candidates.size(), 3u);
  EXPECT_EQ(r1.stats.answers, 2u);
}

struct SmallIndexFixture {
  GraphDatabase db;
  Result<FragmentIndex> index = Status::Internal("unbuilt");

  SmallIndexFixture() {
    MoleculeGeneratorOptions gopt;
    gopt.seed = 77;
    gopt.mean_vertices = 14;
    gopt.max_vertices = 40;
    MoleculeGenerator gen(gopt);
    db = gen.Generate(25);
    GspanOptions mine;
    mine.min_support = 3;
    mine.max_edges = 4;
    auto patterns = MineFrequentSubgraphs(db, mine);
    EXPECT_TRUE(patterns.ok());
    std::vector<Graph> features;
    for (const Pattern& p : patterns.value()) features.push_back(p.graph);
    FragmentIndexOptions opts;
    opts.max_fragment_edges = 4;
    index = FragmentIndex::Build(db, features, opts);
    EXPECT_TRUE(index.ok());
  }
};

TEST(QueryFragmentsTest, EnumeratesOnlyIndexedFragments) {
  SmallIndexFixture fx;
  QuerySampler sampler(&fx.db, {.seed = 2});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  auto fragments = EnumerateIndexedQueryFragments(fx.index.value(), query.value());
  ASSERT_TRUE(fragments.ok());
  EXPECT_FALSE(fragments.value().empty());
  for (const QueryFragment& qf : fragments.value()) {
    EXPECT_GE(qf.prepared.class_id, 0);
    EXPECT_LT(qf.prepared.class_id, fx.index.value().num_classes());
    EXPECT_LE(qf.prepared.num_edges, 4);
    EXPECT_TRUE(std::is_sorted(qf.vertices.begin(), qf.vertices.end()));
    // Vertex count consistent with the class skeleton.
    EXPECT_EQ(static_cast<int>(qf.vertices.size()),
              fx.index.value().class_at(qf.prepared.class_id).num_vertices());
  }
}

TEST(QueryFragmentsTest, MaxFragmentsKeepsLargest) {
  SmallIndexFixture fx;
  QuerySampler sampler(&fx.db, {.seed = 4});
  auto query = sampler.Sample(10);
  ASSERT_TRUE(query.ok());
  auto all = EnumerateIndexedQueryFragments(fx.index.value(), query.value());
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().size(), 5u);
  auto capped =
      EnumerateIndexedQueryFragments(fx.index.value(), query.value(), 5);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped.value().size(), 5u);
  int min_kept = capped.value().back().prepared.num_edges;
  for (const QueryFragment& qf : capped.value()) {
    min_kept = std::min(min_kept, qf.prepared.num_edges);
  }
  // Every kept fragment is at least as large as the largest dropped one
  // would allow: the kept set is a prefix of the size-sorted list.
  int max_possible = 0;
  for (const QueryFragment& qf : all.value()) {
    max_possible = std::max(max_possible, qf.prepared.num_edges);
  }
  EXPECT_EQ(capped.value().front().prepared.num_edges, max_possible);
}

TEST(TopoPruneTest, CandidatesContainStructureMatches) {
  SmallIndexFixture fx;
  ShardedFragmentIndex index =
      ShardedFragmentIndex::FromFragmentIndex(fx.index.MoveValue());
  TopoPruneEngine topo(&fx.db, &index);
  QuerySampler sampler(&fx.db, {.seed = 8});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  QueryStats stats;
  auto candidates = topo.Filter(query.value(), &stats);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(stats.candidates_final, candidates.value().size());
  // Completeness: every graph actually containing the structure survives.
  for (int gid = 0; gid < fx.db.size(); ++gid) {
    if (ContainsStructure(query.value(), fx.db.at(gid))) {
      EXPECT_TRUE(std::binary_search(candidates.value().begin(),
                                     candidates.value().end(), gid))
          << "topoPrune dropped a true structural match " << gid;
    }
  }
}

TEST(StatsTest, ToStringMentionsCoreCounters) {
  QueryStats stats;
  stats.fragments_enumerated = 12;
  stats.candidates_final = 34;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("fragments=12"), std::string::npos);
  EXPECT_NE(s.find("cand_final=34"), std::string::npos);
}

}  // namespace
}  // namespace pis
