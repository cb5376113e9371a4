#include "distance/superimposed.h"

#include <gtest/gtest.h>

#include "distance/distance_spec.h"
#include "distance/linear.h"
#include "distance/mutation.h"
#include "distance/score_matrix.h"
#include "graph/generator.h"
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

TEST(ScoreMatrixTest, UnitAndZero) {
  ScoreMatrix unit = ScoreMatrix::Unit();
  EXPECT_EQ(unit.Cost(1, 1), 0);
  EXPECT_EQ(unit.Cost(1, 2), 1);
  ScoreMatrix zero = ScoreMatrix::Zero();
  EXPECT_EQ(zero.Cost(1, 2), 0);
}

TEST(ScoreMatrixTest, OverridesAreSymmetric) {
  ScoreMatrix m = ScoreMatrix::Unit();
  ASSERT_TRUE(m.Set(1, 2, 0.25).ok());
  EXPECT_DOUBLE_EQ(m.Cost(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(m.Cost(2, 1), 0.25);
  EXPECT_DOUBLE_EQ(m.Cost(1, 3), 1.0);  // default preserved
  EXPECT_FALSE(m.Set(1, 2, -1).ok());   // negative rejected
}

TEST(MutationDistanceTest, CountsEdgeMismatches) {
  Graph q = Cycle(6, 1, 1);
  Graph g = Cycle(6, 1, 1);
  g.SetEdgeLabel(0, 2);
  g.SetEdgeLabel(3, 2);
  MutationCostModel model = EdgeMutationModel();
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, model), 2.0);
}

TEST(MutationDistanceTest, MinimizesOverSuperpositions) {
  // Path a-b with edge labels [1,2]; target path with [2,1]. Reversal gives
  // distance 0.
  Graph q = Path(2);
  q.SetEdgeLabel(0, 1);
  q.SetEdgeLabel(1, 2);
  Graph g = Path(2);
  g.SetEdgeLabel(0, 2);
  g.SetEdgeLabel(1, 1);
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, EdgeMutationModel()), 0.0);
}

TEST(MutationDistanceTest, VertexLabelsWhenEnabled) {
  Graph q = Path(1, 1);
  Graph g = Path(1, 2);
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, EdgeMutationModel()), 0.0);
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, UnitMutationModel()), 2.0);
}

TEST(LinearDistanceTest, SumsAbsoluteWeightDifferences) {
  Graph q = Path(2);
  q.SetEdgeWeight(0, 1.0);
  q.SetEdgeWeight(1, 2.0);
  Graph g = Path(2);
  g.SetEdgeWeight(0, 1.5);
  g.SetEdgeWeight(1, 2.25);
  LinearCostModel model = EdgeLinearModel();
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, model), 0.75);
}

TEST(LinearDistanceTest, VertexWeightsWhenEnabled) {
  Graph q = Path(1);
  q.SetVertexWeight(0, 1.0);
  Graph g = Path(1);
  g.SetVertexWeight(0, 3.0);
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, EdgeLinearModel()), 0.0);
  LinearCostModel full(true, true);
  EXPECT_DOUBLE_EQ(IsomorphicDistance(q, g, full), 2.0);
}

TEST(SuperimposedTest, PaperExample1) {
  // Figure 1/2 analogue: a 6-ring query; a target whose ring differs in one
  // edge label has distance 1.
  Graph query = Cycle(6, 1, 1);
  Graph target = Cycle(6, 1, 1);
  target.AddVertex(1);
  ASSERT_TRUE(target.AddEdge(0, 6, 2).ok());
  target.SetEdgeLabel(2, 2);  // one mutated ring bond
  MutationCostModel model = EdgeMutationModel();
  EXPECT_DOUBLE_EQ(MinSuperimposedDistance(query, target, model), 1.0);
  EXPECT_TRUE(WithinSuperimposedDistance(query, target, model, 1));
  EXPECT_FALSE(WithinSuperimposedDistance(query, target, model, 0.5));
}

TEST(SuperimposedTest, InfiniteWhenNotContained) {
  Graph query = Cycle(5);
  Graph target = Path(6);
  MutationCostModel model = EdgeMutationModel();
  EXPECT_EQ(MinSuperimposedDistance(query, target, model), kInfiniteDistance);
}

TEST(SuperimposedTest, BoundPrunesButKeepsEquality) {
  Graph query = Cycle(6, 1, 1);
  Graph target = Cycle(6, 1, 1);
  target.SetEdgeLabel(0, 2);
  target.SetEdgeLabel(1, 2);
  MutationCostModel model = EdgeMutationModel();
  // Exact distance 2; bound 2 must find it, bound 1.5 must not.
  EXPECT_DOUBLE_EQ(MinSuperimposedDistance(query, target, model, 2.0), 2.0);
  EXPECT_EQ(MinSuperimposedDistance(query, target, model, 1.5), kInfiniteDistance);
}

TEST(SuperimposedTest, EmptyQueryIsDistanceZero) {
  Graph empty;
  Graph target = Cycle(3);
  MutationCostModel model = EdgeMutationModel();
  EXPECT_DOUBLE_EQ(MinSuperimposedDistance(empty, target, model), 0.0);
}

TEST(DistanceSpecTest, FactoryConfigurations) {
  DistanceSpec em = DistanceSpec::EdgeMutation();
  EXPECT_EQ(em.type, DistanceType::kMutation);
  EXPECT_EQ(em.vertex_scores.Cost(1, 2), 0);
  EXPECT_EQ(em.edge_scores.Cost(1, 2), 1);
  DistanceSpec fm = DistanceSpec::FullMutation();
  EXPECT_EQ(fm.vertex_scores.Cost(1, 2), 1);
  DistanceSpec el = DistanceSpec::EdgeLinear();
  EXPECT_EQ(el.type, DistanceType::kLinear);
  EXPECT_NE(el.MakeCostModel(), nullptr);
}

// Property: the cost-bounded search equals the brute-force
// enumerate-and-score oracle on random pairs, for both distances.
class SuperimposedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SuperimposedOracleTest, MatchesBruteForce) {
  Rng rng(GetParam() * 31 + 1);
  RandomGraphOptions topt;
  topt.num_vertices = 9;
  topt.num_edges = 13;
  topt.vertex_alphabet = 3;
  topt.edge_alphabet = 3;
  topt.max_weight = 4.0;
  Graph target = GenerateRandomConnectedGraph(topt, &rng);
  RandomGraphOptions qopt;
  qopt.num_vertices = 4 + GetParam() % 3;
  qopt.num_edges = qopt.num_vertices + GetParam() % 2;
  qopt.vertex_alphabet = 3;
  qopt.edge_alphabet = 3;
  qopt.max_weight = 4.0;
  Graph query = GenerateRandomConnectedGraph(qopt, &rng);

  MutationCostModel mutation = UnitMutationModel();
  double exact = MinSuperimposedDistance(query, target, mutation);
  double brute = MinSuperimposedDistanceBruteForce(query, target, mutation);
  EXPECT_DOUBLE_EQ(exact, brute);

  LinearCostModel linear(true, true);
  double exact_lin = MinSuperimposedDistance(query, target, linear);
  double brute_lin = MinSuperimposedDistanceBruteForce(query, target, linear);
  if (exact_lin == kInfiniteDistance) {
    EXPECT_EQ(brute_lin, kInfiniteDistance);
  } else {
    EXPECT_NEAR(exact_lin, brute_lin, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperimposedOracleTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace pis
