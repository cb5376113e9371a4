// GraphCertificate (core/certificate.h) against an independent oracle: the
// brute-force superimposed distance, which enumerates every embedding with
// VF2 and scores each one. A certificate bound must never exceed the true
// distance (else pass 2 would drop an answer), and on hand-built pairs it
// must give exactly the value its formula promises.
#include "core/certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "distance/distance_spec.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "util/random.h"

namespace pis {
namespace {

/// A graph from vertex labels and (u, v, label) edges.
Graph Build(const std::vector<Label>& vertex_labels,
            const std::vector<std::vector<int>>& edges) {
  Graph g;
  for (Label l : vertex_labels) g.AddVertex(l);
  for (const std::vector<int>& e : edges) {
    EXPECT_TRUE(g.AddEdge(e[0], e[1], e[2]).ok());
  }
  return g;
}

/// The path a-b-c-d with edge labels 1, 1, 2.
Graph Path() { return Build({1, 1, 2, 3}, {{0, 1, 1}, {1, 2, 1}, {2, 3, 2}}); }

/// A 4-cycle with edge labels 1, 2, 2, 2 and vertex labels 1, 2, 2, 2.
Graph Square() {
  return Build({1, 2, 2, 2}, {{0, 1, 1}, {1, 2, 2}, {2, 3, 2}, {3, 0, 2}});
}

TEST(ScoreMatrixTest, MinMismatchIsTheCheapestOffDiagonalCost) {
  EXPECT_EQ(ScoreMatrix::Unit().MinMismatch(), 1.0);
  EXPECT_EQ(ScoreMatrix::Zero().MinMismatch(), 0.0);
  ScoreMatrix m(2.0);
  EXPECT_EQ(m.MinMismatch(), 2.0);
  ASSERT_TRUE(m.Set(1, 2, 5.0).ok());  // dearer than the default
  EXPECT_EQ(m.MinMismatch(), 2.0);
  ASSERT_TRUE(m.Set(3, 3, 0.1).ok());  // a label with itself never applies
  EXPECT_EQ(m.MinMismatch(), 2.0);
  ASSERT_TRUE(m.Set(4, 1, 0.75).ok());
  EXPECT_EQ(m.MinMismatch(), 0.75);
  ASSERT_TRUE(m.Set(2, 4, 0.0).ok());
  EXPECT_EQ(m.MinMismatch(), 0.0);
}

TEST(GraphCertificateTest, LabelBoundValuesOnHandBuiltPairs) {
  // Edge labels: the path has {1, 1, 2}, the square {1, 2, 2, 2}, so two
  // path edges can keep their label and one must mutate. Vertex labels:
  // {1, 1, 2, 3} against {1, 2, 2, 2}: two can match, two must mutate.
  const Graph query = Path();
  const Graph target = Square();
  {
    GraphCertificate certificate(query, DistanceSpec::EdgeMutation());
    EXPECT_EQ(certificate.LowerBound(target), 1.0);
    EXPECT_EQ(certificate.LowerBound(query), 0.0);
    // The bound is exact here: one path of the square reads 1, 2, 2.
    EXPECT_EQ(MinSuperimposedDistanceBruteForce(
                  query, target, *DistanceSpec::EdgeMutation().MakeCostModel()),
              1.0);
  }
  {
    GraphCertificate certificate(query, DistanceSpec::FullMutation());
    EXPECT_EQ(certificate.LowerBound(target), 1.0 + 2.0);
    EXPECT_EQ(certificate.LowerBound(query), 0.0);
  }
  {
    DistanceSpec spec = DistanceSpec::FullMutation();
    ASSERT_TRUE(spec.edge_scores.Set(1, 2, 0.5).ok());
    ASSERT_TRUE(spec.vertex_scores.Set(3, 2, 0.25).ok());
    GraphCertificate certificate(query, spec);
    EXPECT_EQ(certificate.LowerBound(target), 0.5 * 1 + 0.25 * 2);
  }
  {
    DistanceSpec spec = DistanceSpec::FullMutation();
    ASSERT_TRUE(spec.edge_scores.Set(1, 7, 0.0).ok());
    GraphCertificate certificate(query, spec);
    EXPECT_EQ(certificate.LowerBound(target), 2.0);  // vertex term only
  }
  {
    GraphCertificate certificate(query, DistanceSpec::EdgeLinear());
    EXPECT_EQ(certificate.LowerBound(target), 0.0);
  }
  {
    // Every label differs: all three edges must mutate.
    const Graph other = Build({5, 5, 5, 5}, {{0, 1, 9}, {1, 2, 9}, {2, 3, 9}});
    GraphCertificate certificate(query, DistanceSpec::EdgeMutation());
    EXPECT_EQ(certificate.LowerBound(other), 3.0);
    GraphCertificate full(query, DistanceSpec::FullMutation());
    EXPECT_EQ(full.LowerBound(other), 3.0 + 4.0);
  }
}

TEST(GraphCertificateTest, DegreeDominanceRejectsGraphsThatCannotHost) {
  // K4 minus an edge: degrees 3, 3, 2, 2.
  const Graph diamond = Build(
      {1, 1, 1, 1}, {{0, 1, 1}, {0, 2, 1}, {1, 2, 1}, {0, 3, 1}, {1, 3, 1}});
  // A star K1,5 has six vertices and five edges, but one of degree >= 3.
  const Graph star = Build({1, 1, 1, 1, 1, 1}, {{0, 1, 1},
                                                {0, 2, 1},
                                                {0, 3, 1},
                                                {0, 4, 1},
                                                {0, 5, 1}});
  // A triangle has too few vertices.
  const Graph triangle = Build({1, 1, 1}, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}});
  // Two triangles joined by an edge: two vertices of degree 3.
  const Graph bridged =
      Build({1, 1, 1, 1, 1, 1}, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1},
                                 {4, 5, 1}, {5, 3, 1}, {0, 3, 1}});
  for (const DistanceSpec& spec :
       {DistanceSpec::EdgeMutation(), DistanceSpec::EdgeLinear()}) {
    GraphCertificate certificate(diamond, spec);
    EXPECT_EQ(certificate.LowerBound(star), kInfiniteDistance);
    EXPECT_EQ(certificate.LowerBound(triangle), kInfiniteDistance);
    // Degree counts pass, so only the label bound (0 here) is left, though
    // the diamond does not embed in it.
    EXPECT_EQ(certificate.LowerBound(bridged), 0.0);
    EXPECT_EQ(certificate.LowerBound(diamond), 0.0);
  }
  // A path needs two vertices of degree >= 2: the star has one, the
  // square four.
  GraphCertificate path(Path(), DistanceSpec::EdgeLinear());
  EXPECT_EQ(path.LowerBound(star), kInfiniteDistance);
  EXPECT_EQ(path.LowerBound(Square()), 0.0);
}

/// A connected `edges`-edge subgraph of `g` grown from a random edge, with
/// each label redrawn from 1..3 at probability 0.3.
Graph MutatedSubgraph(const Graph& g, int edges, Rng* rng) {
  std::vector<EdgeId> chosen = {
      static_cast<EdgeId>(rng->UniformIndex(g.NumEdges()))};
  std::set<VertexId> touched = {g.GetEdge(chosen[0]).u, g.GetEdge(chosen[0]).v};
  while (static_cast<int>(chosen.size()) < edges) {
    std::vector<EdgeId> frontier;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const Edge& edge = g.GetEdge(e);
      if (std::find(chosen.begin(), chosen.end(), e) != chosen.end()) continue;
      if (touched.count(edge.u) != 0 || touched.count(edge.v) != 0) {
        frontier.push_back(e);
      }
    }
    if (frontier.empty()) break;
    const EdgeId next = frontier[rng->UniformIndex(frontier.size())];
    chosen.push_back(next);
    touched.insert(g.GetEdge(next).u);
    touched.insert(g.GetEdge(next).v);
  }
  Graph sub = g.EdgeSubgraph(chosen);
  for (EdgeId e = 0; e < sub.NumEdges(); ++e) {
    if (rng->Bernoulli(0.3)) sub.SetEdgeLabel(e, rng->UniformInt(1, 3));
  }
  for (VertexId v = 0; v < sub.NumVertices(); ++v) {
    if (rng->Bernoulli(0.3)) sub.SetVertexLabel(v, rng->UniformInt(1, 3));
  }
  return sub;
}

struct SpecCase {
  std::string name;
  DistanceSpec spec;
};

std::vector<SpecCase> Specs() {
  std::vector<SpecCase> specs = {
      {"edge_mutation", DistanceSpec::EdgeMutation()},
      {"full_mutation", DistanceSpec::FullMutation()},
      {"cheaper_override", DistanceSpec::FullMutation()},
      {"zero_override", DistanceSpec::FullMutation()},
      {"edge_linear", DistanceSpec::EdgeLinear()},
  };
  EXPECT_TRUE(specs[2].spec.edge_scores.Set(1, 2, 0.5).ok());
  EXPECT_TRUE(specs[2].spec.vertex_scores.Set(2, 3, 0.25).ok());
  EXPECT_TRUE(specs[3].spec.edge_scores.Set(1, 3, 0.0).ok());
  return specs;
}

// Over generated pairs, for every spec: the bound never exceeds the brute-
// force distance, so no pair within any σ is ever excluded. The pairs are
// mutated subgraphs of the target (finite distances, where the label bound
// can bind) and independent random queries (often not contained, where
// degree dominance can fire). The tallies prove both bounds were exercised
// and sometimes exact, so a bound tightened by one fails here too.
TEST(GraphCertificateTest, NeverExceedsTheBruteForceDistance) {
  for (const SpecCase& c : Specs()) {
    SCOPED_TRACE(c.name);
    const auto model = c.spec.MakeCostModel();
    int exact_positive = 0;
    int rejected = 0;
    int pairs = 0;
    for (int seed = 0; seed < 60; ++seed) {
      Rng rng(seed * 7919 + 13);
      RandomGraphOptions topt;
      topt.num_vertices = 8 + seed % 3;
      topt.num_edges = topt.num_vertices + 2 + seed % 4;
      topt.max_weight = 4.0;
      const Graph target = GenerateRandomConnectedGraph(topt, &rng);
      RandomGraphOptions qopt;
      qopt.num_vertices = 4 + seed % 3;
      qopt.num_edges = qopt.num_vertices - 1 + seed % 3;
      qopt.max_weight = 4.0;
      const std::vector<Graph> queries = {
          MutatedSubgraph(target, 3 + seed % 4, &rng),
          GenerateRandomConnectedGraph(qopt, &rng)};
      for (const Graph& query : queries) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const double distance =
            MinSuperimposedDistanceBruteForce(query, target, *model);
        GraphCertificate certificate(query, c.spec);
        const double bound = certificate.LowerBound(target);
        ++pairs;
        if (distance == kInfiniteDistance) {
          rejected += bound == kInfiniteDistance ? 1 : 0;
          continue;
        }
        EXPECT_LE(bound, distance + 1e-9);
        exact_positive += (bound > 0 && bound == distance) ? 1 : 0;
        // The query's own graph is at distance 0 and must pass.
        EXPECT_EQ(certificate.LowerBound(query), 0.0);
      }
    }
    EXPECT_EQ(pairs, 120);
    EXPECT_GT(rejected, 0);
    if (c.spec.type == DistanceType::kMutation) {
      EXPECT_GT(exact_positive, 0);
    }
  }
}

}  // namespace
}  // namespace pis
