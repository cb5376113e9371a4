#include "isomorphism/vf2.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "distance/mutation.h"
#include "distance/superimposed.h"
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

TEST(Vf2Test, PathInCycle) {
  Graph p = Path(3);
  Graph c = Cycle(6);
  EXPECT_TRUE(IsSubgraph(p, c));
  EXPECT_FALSE(IsSubgraph(c, p));
}

TEST(Vf2Test, TriangleNotInTree) {
  Graph triangle = Cycle(3);
  Graph tree = Path(4);
  EXPECT_FALSE(IsSubgraph(triangle, tree));
}

TEST(Vf2Test, EmptyPatternAlwaysMatches) {
  Graph empty;
  Graph c = Cycle(4);
  EXPECT_TRUE(IsSubgraph(empty, c));
}

// VF2 matches structure only (the paper's ⊆). Label-preserving
// containment (⊑) is superimposed distance 0 under unit label costs.
bool LabeledSubgraph(const Graph& p, const Graph& t) {
  return WithinSuperimposedDistance(p, t, UnitMutationModel(), 0);
}

TEST(Vf2Test, LabelsRestrictMatching) {
  Graph p = Path(1, 1, 5);
  Graph t = Path(1, 1, 6);
  EXPECT_TRUE(IsSubgraph(p, t));
  EXPECT_FALSE(LabeledSubgraph(p, t));
  t.SetEdgeLabel(0, 5);
  EXPECT_TRUE(LabeledSubgraph(p, t));
}

TEST(Vf2Test, VertexLabelsRestrictMatching) {
  Graph p = Path(1, 2);
  Graph t = Path(1, 1);
  EXPECT_FALSE(LabeledSubgraph(p, t));
  EXPECT_TRUE(IsSubgraph(p, t));
}

TEST(Vf2Test, MonomorphismAllowsExtraTargetEdges) {
  Graph p = Path(2);   // 3 vertices, 2 edges
  Graph t = Cycle(3);  // triangle: the third edge joins the path's ends
  EXPECT_TRUE(IsSubgraph(p, t));
  EXPECT_FALSE(AreIsomorphic(p, t));
}

TEST(Vf2Test, EmbeddingCountPathInCycle) {
  // A 3-edge path embeds into a 6-cycle at 6 start points x 2 directions.
  Graph p = Path(3);
  Graph c = Cycle(6);
  Vf2Matcher matcher(p, c);
  size_t count = matcher.EnumerateAll(
      [](const std::vector<VertexId>&) { return true; });
  EXPECT_EQ(count, 12u);
}

TEST(Vf2Test, EnumerationStopsWhenCallbackReturnsFalse) {
  Graph p = Path(1);
  Graph c = Cycle(5);
  Vf2Matcher matcher(p, c);
  size_t seen = 0;
  matcher.EnumerateAll([&](const std::vector<VertexId>&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(Vf2Test, MappingIsAValidEmbedding) {
  Graph p = Cycle(4);
  Graph t = Cycle(4);
  t.AddVertex(1);
  ASSERT_TRUE(t.AddEdge(0, 4, 1).ok());
  std::vector<VertexId> mapping;
  Vf2Matcher matcher(p, t);
  ASSERT_TRUE(matcher.FindFirst(&mapping));
  ASSERT_EQ(mapping.size(), 4u);
  std::set<VertexId> images(mapping.begin(), mapping.end());
  EXPECT_EQ(images.size(), 4u);  // injective
  for (EdgeId e = 0; e < p.NumEdges(); ++e) {
    EXPECT_TRUE(t.HasEdge(mapping[p.GetEdge(e).u], mapping[p.GetEdge(e).v]));
  }
}

TEST(IsomorphismTest, CyclesAndPaths) {
  EXPECT_TRUE(AreIsomorphic(Cycle(5), Cycle(5)));
  EXPECT_FALSE(AreIsomorphic(Cycle(5), Cycle(6)));
  EXPECT_FALSE(AreIsomorphic(Cycle(3), Path(3)));
}

TEST(AutomorphismTest, KnownGroups) {
  EXPECT_EQ(EnumerateAutomorphisms(Path(2)).size(), 2u);
  EXPECT_EQ(EnumerateAutomorphisms(Cycle(4)).size(), 8u);
  EXPECT_EQ(EnumerateAutomorphisms(Cycle(3)).size(), 6u);
  // Automorphisms are the skeleton's: labels break no symmetry.
  Graph labeled = Cycle(3);
  labeled.SetVertexLabel(0, 9);
  EXPECT_EQ(EnumerateAutomorphisms(labeled).size(), 6u);
  // A triangle with a pendant edge: only the swap of the two far vertices.
  Graph pendant = Cycle(3);
  pendant.AddVertex(1);
  ASSERT_TRUE(pendant.AddEdge(0, 3, 1).ok());
  EXPECT_EQ(EnumerateAutomorphisms(pendant).size(), 2u);
}

// Independent oracle for VF2: tries every injective map of pattern
// vertices into target vertices (at most 8*7*6*5*4 = 6,720 for the sweep
// below) and counts the maps that keep every pattern edge. No pruning, so
// it shares no logic with VF2.
size_t CountEmbeddingsExhaustively(const Graph& pattern, const Graph& target) {
  std::vector<VertexId> image(pattern.NumVertices());
  std::vector<bool> used(target.NumVertices(), false);
  auto is_embedding = [&] {
    for (EdgeId e = 0; e < pattern.NumEdges(); ++e) {
      const Edge& edge = pattern.GetEdge(e);
      if (target.FindEdge(image[edge.u], image[edge.v]) == kInvalidEdge) {
        return false;
      }
    }
    return true;
  };
  size_t count = 0;
  std::function<void(int)> extend = [&](int depth) {
    if (depth == pattern.NumVertices()) {
      if (is_embedding()) ++count;
      return;
    }
    for (VertexId t = 0; t < target.NumVertices(); ++t) {
      if (used[t]) continue;
      used[t] = true;
      image[depth] = t;
      extend(depth + 1);
      used[t] = false;
    }
  };
  extend(0);
  return count;
}

// Property sweep: VF2's embedding count equals the exhaustive oracle's on
// random pattern/target pairs. The case keeps the name it had when the
// second matcher was Ullmann's algorithm, which the library no longer
// carries.
class MatcherAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherAgreementTest, Vf2EqualsUllmann) {
  Rng rng(GetParam());
  RandomGraphOptions topt;
  topt.num_vertices = 8;
  topt.num_edges = 12;
  topt.vertex_alphabet = 2;
  topt.edge_alphabet = 2;
  Graph target = GenerateRandomConnectedGraph(topt, &rng);
  RandomGraphOptions popt;
  popt.num_vertices = 3 + GetParam() % 3;
  popt.num_edges = popt.num_vertices;
  popt.vertex_alphabet = 2;
  popt.edge_alphabet = 2;
  Graph pattern = GenerateRandomConnectedGraph(popt, &rng);

  Vf2Matcher vf2(pattern, target);
  size_t count =
      vf2.EnumerateAll([](const std::vector<VertexId>&) { return true; });
  EXPECT_EQ(count, CountEmbeddingsExhaustively(pattern, target));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherAgreementTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace pis
