#include "canonical/min_dfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "canonical/dfs_code.h"
#include "graph/generator.h"
#include "isomorphism/vf2.h"
#include "util/random.h"

namespace pis {
namespace {

Graph Path(int edges, Label elabel = 1) {
  Graph g;
  g.AddVertex(1);
  for (int i = 0; i < edges; ++i) {
    g.AddVertex(1);
    EXPECT_TRUE(g.AddEdge(i, i + 1, elabel).ok());
  }
  return g;
}

Graph Cycle(int n, Label elabel = 1) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddVertex(1);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, (i + 1) % n, elabel).ok());
  }
  return g;
}

TEST(DfsCodeTest, ForwardBackwardClassification) {
  EXPECT_TRUE((DfsEdge{0, 1}).IsForward());
  EXPECT_FALSE((DfsEdge{2, 0}).IsForward());
}

TEST(DfsCodeTest, CompareBackwardBeforeForward) {
  // From the same state, backward edges precede forward extensions.
  DfsEdge backward{2, 0};
  DfsEdge forward{2, 3};
  EXPECT_LT(CompareDfsEdges(backward, forward), 0);
  EXPECT_GT(CompareDfsEdges(forward, backward), 0);
}

TEST(DfsCodeTest, CompareForwardDeeperOriginFirst) {
  DfsEdge deep{2, 3};
  DfsEdge shallow{0, 3};
  EXPECT_LT(CompareDfsEdges(deep, shallow), 0);
}

TEST(DfsCodeTest, ToGraphRoundTrip) {
  DfsCode code({{0, 1}, {1, 2}, {2, 0}});
  Result<Graph> g = code.ToGraph();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().NumVertices(), 3);
  EXPECT_EQ(g.value().NumEdges(), 3);
  EXPECT_EQ(g.value().VertexLabel(0), kNoLabel);
  EXPECT_EQ(g.value().GetEdge(2).label, kNoLabel);
  EXPECT_EQ(g.value().FindEdge(2, 0) != kInvalidEdge, true);
}

TEST(DfsCodeTest, ToGraphRejectsDisconnected) {
  // Indices 2,3 unreachable from 0,1 is impossible in a DFS code, but a
  // malformed code can encode it.
  DfsCode code({{0, 1}, {2, 3}});
  EXPECT_FALSE(code.ToGraph().ok());
}

TEST(MinDfsTest, RejectsEmptyAndDisconnected) {
  Graph empty;
  EXPECT_FALSE(MinDfsCode(empty).ok());
  Graph two;
  two.AddVertex(1);
  two.AddVertex(1);
  EXPECT_FALSE(MinDfsCode(two).ok());
}

TEST(MinDfsTest, SingleVertex) {
  Graph g;
  g.AddVertex(3);
  Result<CanonicalForm> form = MinDfsCode(g);
  ASSERT_TRUE(form.ok());
  EXPECT_TRUE(form.value().code.empty());
  ASSERT_EQ(form.value().embeddings.size(), 1u);
  EXPECT_EQ(form.value().Key(), "n1|");
}

TEST(MinDfsTest, IsomorphicGraphsShareKey) {
  Graph a = Cycle(6);
  // Same cycle built in a scrambled vertex order.
  Rng rng(3);
  std::vector<VertexId> perm(6);
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(&perm);
  Graph b = a.Relabeled(perm);
  Result<CanonicalForm> fa = MinDfsCode(a);
  Result<CanonicalForm> fb = MinDfsCode(b);
  ASSERT_TRUE(fa.ok() && fb.ok());
  EXPECT_EQ(fa.value().Key(), fb.value().Key());
}

TEST(MinDfsTest, NonIsomorphicGraphsDiffer) {
  Graph path = Path(5);   // 6 vertices, 5 edges
  Graph star;             // 6 vertices, 5 edges
  star.AddVertex(1);
  for (int i = 0; i < 5; ++i) {
    star.AddVertex(1);
    ASSERT_TRUE(star.AddEdge(0, i + 1, 1).ok());
  }
  Result<CanonicalForm> fp = MinDfsCode(path);
  Result<CanonicalForm> fs = MinDfsCode(star);
  ASSERT_TRUE(fp.ok() && fs.ok());
  EXPECT_NE(fp.value().Key(), fs.value().Key());
}

TEST(MinDfsTest, KeyIsTheSkeletonsKey) {
  Graph a = Path(2, 1);
  Graph b = Path(2, 1);
  b.SetEdgeLabel(1, 2);
  b.SetVertexLabel(0, 4);
  EXPECT_EQ(MinDfsCode(a).value().Key(), MinDfsCode(b).value().Key());
  EXPECT_EQ(MinDfsCode(b).value().Key(),
            MinDfsCode(b.Skeleton()).value().Key());
  EXPECT_EQ(MinDfsCode(b).value().Key(), "n3|(0,1,0,0,0)(1,2,0,0,0)");
}

TEST(MinDfsTest, EmbeddingCountEqualsAutomorphismGroupOrder) {
  struct Case {
    Graph g;
    size_t automorphisms;
  };
  std::vector<Case> cases;
  Graph labeled_edge;                  // labels break no symmetry: 2
  labeled_edge.AddVertex(5);
  labeled_edge.AddVertex(2);
  ASSERT_TRUE(labeled_edge.AddEdge(0, 1, 7).ok());
  cases.push_back({labeled_edge, 2});
  cases.push_back({Path(3), 2});       // path: 2 (reversal)
  cases.push_back({Cycle(6), 12});     // hexagon: dihedral group D6
  Graph triangle_pendant = Cycle(3);   // triangle + pendant edge: 2
  triangle_pendant.AddVertex(1);
  ASSERT_TRUE(triangle_pendant.AddEdge(0, 3, 1).ok());
  cases.push_back({triangle_pendant, 2});
  for (const Case& c : cases) {
    Result<CanonicalForm> form = MinDfsCode(c.g);
    ASSERT_TRUE(form.ok());
    EXPECT_EQ(form.value().embeddings.size(), c.automorphisms);
    EXPECT_EQ(EnumerateAutomorphisms(c.g).size(), c.automorphisms);
  }
}

TEST(MinDfsTest, EmbeddingsRealizeTheCode) {
  Graph g = Cycle(5);
  g.SetEdgeLabel(2, 9);
  Result<CanonicalForm> form = MinDfsCode(g);
  ASSERT_TRUE(form.ok());
  // The label breaks no symmetry of the skeleton: D5 has order 10.
  EXPECT_EQ(form.value().embeddings.size(), 10u);
  for (const CanonicalEmbedding& emb : form.value().embeddings) {
    ASSERT_EQ(emb.vertex_order.size(), 5u);
    ASSERT_EQ(emb.edge_order.size(), 5u);
    // Rebuild the code edges from the embedding.
    std::vector<int> dfs_index(g.NumVertices(), -1);
    for (size_t i = 0; i < emb.vertex_order.size(); ++i) {
      dfs_index[emb.vertex_order[i]] = static_cast<int>(i);
    }
    for (size_t k = 0; k < form.value().code.size(); ++k) {
      const DfsEdge& ce = form.value().code[k];
      const Edge& ge = g.GetEdge(emb.edge_order[k]);
      // The graph edge's endpoints must map to the code indices.
      int iu = dfs_index[ge.u];
      int iv = dfs_index[ge.v];
      EXPECT_TRUE((iu == ce.from && iv == ce.to) ||
                  (iu == ce.to && iv == ce.from));
    }
  }
}

TEST(MinDfsTest, CanonicalCodeIsItsGraphsMinimum) {
  // A triangle with a pendant edge.
  Graph g = Cycle(3);
  g.AddVertex(2);
  ASSERT_TRUE(g.AddEdge(0, 3, 1).ok());
  Result<CanonicalForm> form = MinDfsCode(g);
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(form.value().code, DfsCode({{0, 1}, {1, 2}, {2, 0}, {2, 3}}));
  // The minimum code is a fixed point: its own graph canonicalizes to it.
  Result<Graph> coded = form.value().code.ToGraph();
  ASSERT_TRUE(coded.ok());
  Result<CanonicalForm> again = MinDfsCode(coded.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().code, form.value().code);
  // A non-canonical code of the same graph: it starts at the pendant
  // vertex, so its third tuple grows forward where the minimum closes the
  // triangle backward.
  DfsCode other({{0, 1}, {1, 2}, {2, 3}, {3, 1}});
  Result<Graph> other_graph = other.ToGraph();
  ASSERT_TRUE(other_graph.ok());
  Result<CanonicalForm> other_min = MinDfsCode(other_graph.value());
  ASSERT_TRUE(other_min.ok());
  EXPECT_EQ(other_min.value().code, form.value().code);
  EXPECT_FALSE(other_min.value().code == other);
}

// Property: the canonical key is invariant under random vertex
// permutations, for random labeled graphs (whose labels it ignores).
class CanonicalPermutationTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalPermutationTest, KeyInvariantUnderPermutation) {
  Rng rng(GetParam());
  RandomGraphOptions options;
  options.num_vertices = 3 + GetParam() % 6;
  options.num_edges = options.num_vertices + GetParam() % 4;
  options.vertex_alphabet = 2;
  options.edge_alphabet = 2;
  Graph g = GenerateRandomConnectedGraph(options, &rng);
  Result<CanonicalForm> base = MinDfsCode(g);
  ASSERT_TRUE(base.ok());
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);
    Result<CanonicalForm> permuted = MinDfsCode(g.Relabeled(perm));
    ASSERT_TRUE(permuted.ok());
    EXPECT_EQ(base.value().Key(), permuted.value().Key());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalPermutationTest,
                         ::testing::Range(0, 25));

// Property: two random graphs have equal keys iff their skeletons are
// isomorphic (checked against VF2).
class CanonicalIsoAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalIsoAgreementTest, KeyEqualityMatchesIsomorphism) {
  Rng rng(1000 + GetParam());
  RandomGraphOptions options;
  options.num_vertices = 4 + GetParam() % 3;
  options.num_edges = options.num_vertices + 1;
  options.vertex_alphabet = 2;
  options.edge_alphabet = 1;
  Graph a = GenerateRandomConnectedGraph(options, &rng);
  Graph b = GenerateRandomConnectedGraph(options, &rng);
  bool iso = AreIsomorphic(a, b);
  bool keys_equal =
      MinDfsCode(a).value().Key() == MinDfsCode(b).value().Key();
  EXPECT_EQ(iso, keys_equal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalIsoAgreementTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace pis
