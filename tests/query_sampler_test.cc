#include "graph/query_sampler.h"

#include <gtest/gtest.h>

#include "distance/mutation.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "util/random.h"

namespace pis {
namespace {

TEST(SampleConnectedSubgraphTest, ExactEdgeCountAndConnected) {
  Rng rng(1);
  MoleculeGenerator gen;
  for (int trial = 0; trial < 20; ++trial) {
    Graph host = gen.Next();
    for (int m : {1, 4, 10}) {
      if (host.NumEdges() < m) continue;
      Result<Graph> sub = SampleConnectedSubgraph(host, m, &rng);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      EXPECT_EQ(sub.value().NumEdges(), m);
      EXPECT_TRUE(sub.value().IsConnected());
      // The sample is genuinely a subgraph of the host, labels included
      // (the paper's ⊑: distance 0 under unit label costs).
      EXPECT_TRUE(WithinSuperimposedDistance(sub.value(), host,
                                             UnitMutationModel(), 0));
    }
  }
}

TEST(SampleConnectedSubgraphTest, RejectsBadSizes) {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(1);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  Rng rng(2);
  EXPECT_FALSE(SampleConnectedSubgraph(g, 0, &rng).ok());
  EXPECT_FALSE(SampleConnectedSubgraph(g, 2, &rng).ok());
  EXPECT_TRUE(SampleConnectedSubgraph(g, 1, &rng).ok());
}

TEST(QuerySamplerTest, StripsVertexLabelsWhenAsked) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(10);
  QuerySampler strip(&db, {.seed = 3, .strip_vertex_labels = true});
  Result<Graph> q = strip.Sample(6);
  ASSERT_TRUE(q.ok());
  for (VertexId v = 0; v < q.value().NumVertices(); ++v) {
    EXPECT_EQ(q.value().VertexLabel(v), kNoLabel);
  }
  QuerySampler keep(&db, {.seed = 3, .strip_vertex_labels = false});
  Result<Graph> q2 = keep.Sample(6);
  ASSERT_TRUE(q2.ok());
  bool any_labeled = false;
  for (VertexId v = 0; v < q2.value().NumVertices(); ++v) {
    if (q2.value().VertexLabel(v) != kNoLabel) any_labeled = true;
  }
  EXPECT_TRUE(any_labeled);
}

TEST(QuerySamplerTest, SampleSetSizeAndDeterminism) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(15);
  QuerySampler a(&db, {.seed = 7});
  QuerySampler b(&db, {.seed = 7});
  auto qa = a.SampleSet(8, 12);
  auto qb = b.SampleSet(8, 12);
  ASSERT_TRUE(qa.ok() && qb.ok());
  ASSERT_EQ(qa.value().size(), 12u);
  for (size_t i = 0; i < qa.value().size(); ++i) {
    EXPECT_TRUE(qa.value()[i] == qb.value()[i]);
  }
}

TEST(QuerySamplerTest, FailsWhenNoHostBigEnough) {
  GraphDatabase db;
  Graph tiny;
  tiny.AddVertex(1);
  tiny.AddVertex(1);
  ASSERT_TRUE(tiny.AddEdge(0, 1, 1).ok());
  db.Add(tiny);
  QuerySampler sampler(&db);
  EXPECT_FALSE(sampler.Sample(100).ok());
}

TEST(QuerySamplerTest, EmptyDatabase) {
  GraphDatabase db;
  QuerySampler sampler(&db);
  EXPECT_FALSE(sampler.Sample(1).ok());
}

}  // namespace
}  // namespace pis
