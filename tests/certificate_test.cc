// GraphCertificate (core/certificate.h) against an independent oracle: the
// brute-force superimposed distance, which enumerates every embedding with
// VF2 and scores each one. Whenever the true distance is within σ, the
// certificate's bound must not exceed it (else pass 2 would drop an
// answer); on hand-built pairs it must give exactly the value its formula
// promises, and each of its conditions must be seen removing pairs. The
// verifier (core/verifier.h), which stops at the first superposition
// within σ, is checked against the same oracle: NaiveSearch shares it, so
// no engine differential can.
#include "core/certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "distance/distance_spec.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "util/random.h"
#include "util/serde.h"

namespace pis {

/// Reaches the certificate's first three bounds without the spanning-tree
/// one, and all four without the tree's outside pass and second round, to
/// tell which bound or pass excluded a pair.
class GraphCertificatePeer {
 public:
  static double LocalBound(GraphCertificate* certificate, const Graph& graph,
                           double sigma) {
    return certificate->LocalBound(graph, sigma);
  }
  static double InsideOnly(GraphCertificate* certificate, const Graph& graph,
                           double sigma) {
    const double local = certificate->LocalBound(graph, sigma);
    if (local > sigma) return local;
    certificate->HalfEdges(graph);
    return std::max(local, certificate->TreeBound(sigma));
  }
};

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
/// A σ no bound reaches: only the σ-free conditions can exclude.
constexpr double kWide = 1e9;

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

TEST(ScoreMatrixTest, RejectsNaNCosts) {
  ScoreMatrix m(1.0);
  EXPECT_EQ(m.Set(1, 2, kNaN).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.Set(1, 2, -0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.Cost(1, 2), 1.0);  // the rejected costs left no override
  EXPECT_EQ(m.MinMismatch(), 1.0);
}

TEST(ScoreMatrixTest, InfiniteCostIsAForbiddenMutation) {
  ScoreMatrix m(1.0);
  ASSERT_TRUE(m.Set(1, 2, kInf).ok());
  EXPECT_EQ(m.Cost(2, 1), kInf);
  EXPECT_EQ(m.MinMismatch(), 1.0);
  ScoreMatrix forbidden(kInf);
  EXPECT_EQ(forbidden.MinMismatch(), kInf);
  EXPECT_FALSE(forbidden.IsZero());
}

TEST(ScoreMatrixTest, DeserializeValidatesEveryCost) {
  auto decode = [](double default_mismatch, double override_cost) {
    BinaryWriter writer;
    writer.F64(default_mismatch);
    writer.U64(1);
    writer.U64((uint64_t{1} << 32) | 2);
    writer.F64(override_cost);
    BinaryReader reader(writer.buffer());
    return ScoreMatrix::Deserialize(&reader);
  };
  ASSERT_TRUE(decode(1.0, 0.5).ok());
  EXPECT_EQ(decode(1.0, 0.5).value().Cost(1, 2), 0.5);
  ASSERT_TRUE(decode(kInf, kInf).ok());
  EXPECT_EQ(decode(kInf, 0.5).value().MinMismatch(), 0.5);
  for (double bad : {kNaN, -1.0}) {
    EXPECT_EQ(decode(bad, 0.5).status().code(), StatusCode::kParseError);
    EXPECT_EQ(decode(1.0, bad).status().code(), StatusCode::kParseError);
  }
}

TEST(GraphCertificateTest, LabelBoundValuesOnHandBuiltPairs) {
  // Edge labels: the path has {1, 1, 2}, the square {1, 2, 2, 2}, so two
  // path edges can keep their label and one must mutate. Vertex labels:
  // {1, 1, 2, 3} against {1, 2, 2, 2}: two can match, two must mutate.
  const Graph query = Path();
  const Graph target = Square();
  {
    GraphCertificate certificate(query, DistanceSpec::EdgeMutation());
    EXPECT_EQ(certificate.LowerBound(target, kWide), 1.0);
    EXPECT_EQ(certificate.LowerBound(query, kWide), 0.0);
    // The bound is exact here: one path of the square reads 1, 2, 2.
    EXPECT_EQ(MinSuperimposedDistanceBruteForce(
                  query, target, *DistanceSpec::EdgeMutation().MakeCostModel()),
              1.0);
  }
  {
    GraphCertificate certificate(query, DistanceSpec::FullMutation());
    EXPECT_EQ(certificate.LowerBound(target, kWide), 1.0 + 2.0);
    EXPECT_EQ(certificate.LowerBound(query, kWide), 0.0);
  }
  {
    DistanceSpec spec = DistanceSpec::FullMutation();
    ASSERT_TRUE(spec.edge_scores.Set(1, 2, 0.5).ok());
    ASSERT_TRUE(spec.vertex_scores.Set(3, 2, 0.25).ok());
    GraphCertificate certificate(query, spec);
    EXPECT_EQ(certificate.LowerBound(target, kWide), 0.5 * 1 + 0.25 * 2);
  }
  {
    DistanceSpec spec = DistanceSpec::FullMutation();
    ASSERT_TRUE(spec.edge_scores.Set(1, 7, 0.0).ok());
    GraphCertificate certificate(query, spec);
    EXPECT_EQ(certificate.LowerBound(target, kWide), 2.0);  // vertex term only
  }
  {
    GraphCertificate certificate(query, DistanceSpec::EdgeLinear());
    EXPECT_EQ(certificate.LowerBound(target, kWide), 0.0);
  }
  {
    // Every label differs: all three edges must mutate.
    const Graph other = Build({5, 5, 5, 5}, {{0, 1, 9}, {1, 2, 9}, {2, 3, 9}});
    GraphCertificate certificate(query, DistanceSpec::EdgeMutation());
    EXPECT_EQ(certificate.LowerBound(other, kWide), 3.0);
    GraphCertificate full(query, DistanceSpec::FullMutation());
    EXPECT_EQ(full.LowerBound(other, kWide), 3.0 + 4.0);
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
    EXPECT_EQ(certificate.LowerBound(star, kWide), kInfiniteDistance);
    EXPECT_EQ(certificate.LowerBound(triangle, kWide), kInfiniteDistance);
    // Degree counts pass, but the diamond's two degree-2 vertices each
    // need two neighbours of degree 3, and the bridged triangles have no
    // such vertex: the neighbourhood domains reject it.
    EXPECT_EQ(certificate.LowerBound(bridged, kWide), kInfiniteDistance);
    EXPECT_EQ(certificate.LowerBound(diamond, kWide), 0.0);
  }
  // A path needs two vertices of degree >= 2: the star has one, the
  // square four.
  GraphCertificate path(Path(), DistanceSpec::EdgeLinear());
  EXPECT_EQ(path.LowerBound(star, kWide), kInfiniteDistance);
  EXPECT_EQ(path.LowerBound(Square(), kWide), 0.0);
}

TEST(GraphCertificateTest, SigmaBudgetAndLocalLabelBound) {
  // Query: the path u0-u1-u2 with both edges labelled 1. Target: the path
  // v0-v1-v2-v3 labelled 1, 2, 1. The label multisets agree ({1, 1} within
  // {1, 1, 2}), but the middle vertex u1 finds two label-1 edges at no
  // target vertex: any image keeps at most one of its edges, so d = 1.
  const Graph query = Build({1, 1, 1}, {{0, 1, 1}, {1, 2, 1}});
  const Graph target =
      Build({1, 1, 1, 1}, {{0, 1, 1}, {1, 2, 2}, {2, 3, 1}});
  const DistanceSpec spec = DistanceSpec::EdgeMutation();
  ASSERT_EQ(MinSuperimposedDistanceBruteForce(query, target,
                                              *spec.MakeCostModel()),
            1.0);
  GraphCertificate certificate(query, spec);
  // σ = 0.5 allows ⌊0.5⌋ = 0 mismatches per vertex: u1's domain empties.
  EXPECT_EQ(certificate.LowerBound(target, 0.5), kInfiniteDistance);
  EXPECT_EQ(certificate.LowerBound(target, 0.0), kInfiniteDistance);
  // σ = 1 allows one: the local label bound is then ⌈½ · 1⌉ = 1, exact.
  EXPECT_EQ(certificate.LowerBound(target, 1.0), 1.0);
  EXPECT_EQ(certificate.LowerBound(target, kWide), 1.0);

  // A single edge labelled 1 against one labelled 2: both endpoints count
  // the one mismatched edge, and the ½ counts it once.
  const Graph edge1 = Build({1, 1}, {{0, 1, 1}});
  const Graph edge2 = Build({1, 1}, {{0, 1, 2}});
  GraphCertificate single(edge1, spec);
  EXPECT_EQ(single.LowerBound(edge2, 1.0), 1.0);
  EXPECT_EQ(single.LowerBound(edge2, kWide), 1.0);

  // A star whose three edges are labelled 1 against a claw labelled 2, 2,
  // 1 beside a path labelled 1, 1, with a cheaper override: the label
  // multisets agree, c_e = 0.5, and the star's centre can keep only one of
  // its three labels at the claw's centre. So σ < 1 (at most one mismatch
  // per vertex) empties its domain, while at σ = 1 the local bound is
  // ⌈½ · 2⌉ · 0.5 = 0.5 against a true distance of 1. The spanning-tree
  // bound (the star is its own tree) charges both mismatched edges: 1,
  // exact.
  DistanceSpec cheap = DistanceSpec::EdgeMutation();
  ASSERT_TRUE(cheap.edge_scores.Set(1, 2, 0.5).ok());
  const Graph star = Build({1, 1, 1, 1}, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}});
  const Graph claw = Build({1, 1, 1, 1, 1, 1, 1}, {{0, 1, 2},
                                                    {0, 2, 2},
                                                    {0, 3, 1},
                                                    {4, 5, 1},
                                                    {5, 6, 1}});
  ASSERT_EQ(MinSuperimposedDistanceBruteForce(star, claw,
                                              *cheap.MakeCostModel()),
            1.0);
  GraphCertificate budgeted(star, cheap);
  EXPECT_EQ(budgeted.LowerBound(claw, 0.25), kInfiniteDistance);
  EXPECT_EQ(budgeted.LowerBound(claw, 0.5), kInfiniteDistance);
  EXPECT_EQ(budgeted.LowerBound(claw, 0.75), kInfiniteDistance);
  EXPECT_EQ(GraphCertificatePeer::LocalBound(&budgeted, claw, 1.0), 0.5);
  EXPECT_EQ(budgeted.LowerBound(claw, 1.0), 1.0);

  // An infinite c_e (every mutation forbidden) allows none; a negative σ
  // admits no graph at all, not even the query itself.
  DistanceSpec forbidden = DistanceSpec::EdgeMutation();
  forbidden.edge_scores = ScoreMatrix(kInf);
  GraphCertificate strict(query, forbidden);
  EXPECT_EQ(strict.LowerBound(target, 5.0), kInfiniteDistance);
  EXPECT_EQ(strict.LowerBound(query, 5.0), 0.0);
  EXPECT_EQ(strict.LowerBound(query, kInf), 0.0);
  EXPECT_GT(certificate.LowerBound(query, -1.0), -1.0);
}

TEST(GraphCertificateTest, MultiWordDomainsAndHighDegreeQueryVertices) {
  // A 70-cycle plus a hub joined to five cycle vertices 14 apart: 71
  // vertices, so every domain spans two words, and the hub is the only
  // vertex of degree 5.
  std::vector<Label> labels(71, 1);
  std::vector<std::vector<int>> edges;
  for (int v = 0; v < 70; ++v) edges.push_back({v, (v + 1) % 70, 1});
  for (int v = 0; v < 70; v += 14) edges.push_back({70, v, 1});
  const Graph target = Build(labels, edges);
  // A spider: centre of degree 5, each leg two edges long. It embeds.
  const Graph spider = Build(
      std::vector<Label>(11, 1),
      {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}, {0, 5, 1},
       {1, 6, 1}, {2, 7, 1}, {3, 8, 1}, {4, 9, 1}, {5, 10, 1}});
  // The same centre with a triangle through it: the hub's neighbours are
  // pairwise apart on the cycle, so no triangle passes through the hub.
  const Graph fan = Build(std::vector<Label>(6, 1),
                          {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1},
                           {0, 5, 1}, {1, 2, 1}});
  // Six legs: degree dominance already fails.
  const Graph six = Build(std::vector<Label>(7, 1),
                          {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1},
                           {0, 5, 1}, {0, 6, 1}});
  for (const DistanceSpec& spec :
       {DistanceSpec::EdgeMutation(), DistanceSpec::EdgeLinear()}) {
    const auto model = spec.MakeCostModel();
    GraphCertificate spider_certificate(spider, spec);
    EXPECT_EQ(spider_certificate.LowerBound(target, 2.0), 0.0);
    EXPECT_EQ(MinSuperimposedDistanceBruteForce(spider, target, *model), 0.0);
    // An isolated query vertex has a signature of its own (no neighbours)
    // and maps to any vertex the rest leaves free.
    Graph lonely = spider;
    lonely.AddVertex(1);
    GraphCertificate lonely_certificate(lonely, spec);
    EXPECT_EQ(lonely_certificate.LowerBound(target, 2.0), 0.0);
    GraphCertificate fan_certificate(fan, spec);
    EXPECT_EQ(fan_certificate.LowerBound(target, kWide), kInfiniteDistance);
    EXPECT_EQ(MinSuperimposedDistanceBruteForce(fan, target, *model),
              kInfiniteDistance);
    GraphCertificate six_certificate(six, spec);
    EXPECT_EQ(six_certificate.LowerBound(target, kWide), kInfiniteDistance);
  }
}

TEST(GraphCertificateTest, SpanningTreeBoundOnHandBuiltPairs) {
  const DistanceSpec spec = DistanceSpec::EdgeMutation();
  const auto model = spec.MakeCostModel();
  {
    // A path labelled 1, 2, 3. Its middle vertices find their own label
    // pairs at x (1 and 2) and y (2 and 3), but the edge x-y is labelled 4:
    // every local condition holds at σ = 0, while along the path one edge
    // must mutate.
    const Graph path = Build({1, 1, 1, 1}, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
    const Graph target = Build({1, 1, 1, 1, 1, 1}, {{0, 1, 1},
                                                     {1, 2, 2},
                                                     {1, 3, 4},
                                                     {3, 4, 3},
                                                     {3, 5, 2}});
    ASSERT_EQ(MinSuperimposedDistanceBruteForce(path, target, *model), 1.0);
    GraphCertificate certificate(path, spec);
    EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, target, 0.0),
              0.0);
    EXPECT_EQ(certificate.LowerBound(target, 0.0), kInfiniteDistance);
    EXPECT_EQ(certificate.LowerBound(target, 1.0), 1.0);
    EXPECT_EQ(certificate.LowerBound(target, kWide), 1.0);
  }
  {
    // A ring labelled 1, 2, 1, 2 around against one labelled 1, 1, 2, 2:
    // every alignment mismatches two edges. The spanning tree drops the
    // closing edge 2-3 and keeps a path labelled 2, 1, 2, which fits with
    // one mismatch, so the bound is 1.
    const Graph ring =
        Build({1, 1, 1, 1}, {{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 0, 2}});
    const Graph target =
        Build({1, 1, 1, 1}, {{0, 1, 1}, {1, 2, 1}, {2, 3, 2}, {3, 0, 2}});
    ASSERT_EQ(MinSuperimposedDistanceBruteForce(ring, target, *model), 2.0);
    GraphCertificate certificate(ring, spec);
    EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, target, 1.0),
              0.0);
    EXPECT_EQ(certificate.LowerBound(target, 1.0), 1.0);
    EXPECT_EQ(certificate.LowerBound(target, 2.0), 1.0);
    EXPECT_EQ(certificate.LowerBound(target, kWide), 1.0);
  }
  {
    // Two paths labelled 1, 2 and an isolated vertex labelled 9 against a
    // path labelled 1, 1, one labelled 2, 2 and a spare vertex: each
    // component pays one edge, and with vertex costs the isolated vertex
    // pays one more. The local bound counts ⌈½ · 2⌉ = 1 for the edges.
    const Graph query = Build({1, 1, 1, 1, 1, 1, 9},
                              {{0, 1, 1}, {1, 2, 2}, {3, 4, 1}, {4, 5, 2}});
    const Graph target = Build({1, 1, 1, 1, 1, 1, 1},
                               {{0, 1, 1}, {1, 2, 1}, {3, 4, 2}, {4, 5, 2}});
    ASSERT_EQ(MinSuperimposedDistanceBruteForce(query, target, *model), 2.0);
    GraphCertificate certificate(query, spec);
    EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, target, kWide),
              1.0);
    EXPECT_EQ(certificate.LowerBound(target, kWide), 2.0);
    EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, target, 1.0),
              1.0);
    EXPECT_EQ(certificate.LowerBound(target, 1.0), kInfiniteDistance);
    const DistanceSpec full = DistanceSpec::FullMutation();
    ASSERT_EQ(
        MinSuperimposedDistanceBruteForce(query, target, *full.MakeCostModel()),
        3.0);
    GraphCertificate with_vertices(query, full);
    EXPECT_EQ(with_vertices.LowerBound(target, kWide), 3.0);
    EXPECT_EQ(with_vertices.LowerBound(target, 2.0), kInfiniteDistance);
  }
  {
    // A root with two children, each needing a label-3 edge further on. A
    // hub joins every neighbour by label 1; only its first neighbour has
    // label-3 edges (two), every other one a label-2 pendant. Both children
    // fit best on that one neighbour, and the subset DP places them apart:
    // 1, exact. On a hub wider than the subset DP each child takes its own
    // cheapest place, so the bound falls back to 0 (still below 1).
    const Graph query = Build({1, 1, 1, 1, 1},
                              {{0, 1, 1}, {0, 2, 1}, {1, 3, 3}, {2, 4, 3}});
    auto hub = [](int width) {
      std::vector<std::vector<int>> edges;
      for (int i = 1; i <= width; ++i) edges.push_back({0, i, 1});
      int next = width + 1;
      edges.push_back({1, next++, 3});
      edges.push_back({1, next++, 3});
      for (int i = 2; i <= width; ++i) edges.push_back({i, next++, 2});
      return Build(std::vector<Label>(next, 1), edges);
    };
    GraphCertificate certificate(query, spec);
    const Graph narrow = hub(10);
    ASSERT_EQ(MinSuperimposedDistanceBruteForce(query, narrow, *model), 1.0);
    EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, narrow, kWide),
              0.0);
    EXPECT_EQ(certificate.LowerBound(narrow, kWide), 1.0);
    EXPECT_EQ(certificate.LowerBound(narrow, 0.5), kInfiniteDistance);
    const Graph wide = hub(70);
    ASSERT_EQ(MinSuperimposedDistanceBruteForce(query, wide, *model), 1.0);
    EXPECT_EQ(certificate.LowerBound(wide, kWide), 0.0);
    EXPECT_EQ(certificate.LowerBound(wide, 1.0), 0.0);
  }
}

TEST(GraphCertificateTest, OutsidePassOnHandBuiltPair) {
  // A root with a leaf and two 3-edge branches, labelled 2, 1, 1 and 1, 2, 1
  // from the root, against a 6-ring whose two halves from vertex 0 carry
  // those labels, with a pendant at 0 and one at the far vertex 3. Every
  // map of a branch within σ = 1 runs around one half of the ring from 0
  // (from 3 the A branch meets two wrong labels), so both branch ends fold
  // onto 3 and there is no embedding at all. Each branch on its own fits at
  // cost 0, so the local conditions and the inside pass read 0. The
  // outside pass leaves both branch ends only vertex 3, which the second
  // round's refinement and matching cannot give to both.
  const Graph query = Build({1, 1, 1, 1, 1, 1, 1, 1}, {{0, 1, 2},
                                                       {1, 2, 1},
                                                       {2, 3, 1},
                                                       {0, 4, 1},
                                                       {4, 5, 2},
                                                       {5, 6, 1},
                                                       {0, 7, 1}});
  const Graph ring = Build({1, 1, 1, 1, 1, 1, 1, 1}, {{0, 1, 2},
                                                      {1, 2, 1},
                                                      {2, 3, 1},
                                                      {3, 4, 1},
                                                      {4, 5, 2},
                                                      {5, 0, 1},
                                                      {6, 0, 1},
                                                      {7, 3, 1}});
  const DistanceSpec spec = DistanceSpec::EdgeMutation();
  ASSERT_EQ(MinSuperimposedDistanceBruteForce(query, ring, *spec.MakeCostModel()),
            kInfiniteDistance);
  GraphCertificate certificate(query, spec);
  EXPECT_EQ(GraphCertificatePeer::LocalBound(&certificate, ring, 1.0), 0.0);
  EXPECT_EQ(GraphCertificatePeer::InsideOnly(&certificate, ring, 1.0), 0.0);
  EXPECT_EQ(certificate.LowerBound(ring, 1.0), kInfiniteDistance);
  // A pendant at vertex 4 gives the second branch an end of its own: the
  // query then embeds at cost 0, and the bound must let it through.
  Graph opened = ring;
  opened.AddVertex(1);
  ASSERT_TRUE(opened.AddEdge(8, 4, 1).ok());
  ASSERT_EQ(
      MinSuperimposedDistanceBruteForce(query, opened, *spec.MakeCostModel()),
      0.0);
  EXPECT_EQ(certificate.LowerBound(opened, 1.0), 0.0);
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

/// The label-multiset bound on its own (the certificate's first bound),
/// recomputed here to tell which condition excluded a pair.
double MultisetBound(const Graph& query, const Graph& target,
                     const DistanceSpec& spec) {
  if (spec.type != DistanceType::kMutation) return 0;
  auto unmatched = [](std::multiset<Label> want, std::multiset<Label> have) {
    int missing = 0;
    for (Label l : want) {
      auto it = have.find(l);
      if (it == have.end()) {
        ++missing;
      } else {
        have.erase(it);
      }
    }
    return missing;
  };
  std::multiset<Label> qe, te, qv, tv;
  for (EdgeId e = 0; e < query.NumEdges(); ++e) qe.insert(query.GetEdge(e).label);
  for (EdgeId e = 0; e < target.NumEdges(); ++e) {
    te.insert(target.GetEdge(e).label);
  }
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    qv.insert(query.VertexLabel(v));
  }
  for (VertexId v = 0; v < target.NumVertices(); ++v) {
    tv.insert(target.VertexLabel(v));
  }
  double bound = 0;
  const int edges = unmatched(qe, te);
  const int vertices = unmatched(qv, tv);
  if (edges > 0) bound += spec.edge_scores.MinMismatch() * edges;
  if (vertices > 0) bound += spec.vertex_scores.MinMismatch() * vertices;
  return bound;
}

/// Whether G holds, for every d, as many vertices of degree >= d as Q.
bool DegreesDominate(const Graph& query, const Graph& target) {
  std::vector<int> q, t;
  for (VertexId v = 0; v < query.NumVertices(); ++v) q.push_back(query.Degree(v));
  for (VertexId v = 0; v < target.NumVertices(); ++v) {
    t.push_back(target.Degree(v));
  }
  if (t.size() < q.size()) return false;
  std::sort(q.rbegin(), q.rend());
  std::sort(t.rbegin(), t.rend());
  for (size_t i = 0; i < q.size(); ++i) {
    if (t[i] < q[i]) return false;
  }
  return true;
}

// Over generated pairs, for every spec and every σ: whenever the brute-
// force distance is within σ the bound never exceeds it, so no answer is
// ever excluded. The pairs are mutated subgraphs of the target (finite
// distances, where the label conditions bind) and independent random
// queries (often not contained, where the structural ones fire), on small
// targets and on targets of more than 64 vertices. The tallies prove every
// condition (and the spanning-tree bound's outside pass with its second
// round) removed pairs on its own and that bounds were sometimes exact, so
// a condition tightened past soundness fails here too.
TEST(GraphCertificateTest, NeverExceedsTheBruteForceDistance) {
  const std::vector<double> sigmas = {0, 0.5, 1, 2, 3, 5};
  int structural_total = 0;
  int budget_total = 0;
  int local_total = 0;
  int tree_total = 0;
  int outside_total = 0;
  for (const SpecCase& c : Specs()) {
    SCOPED_TRACE(c.name);
    const auto model = c.spec.MakeCostModel();
    int exact_positive = 0;
    int degree_rejected = 0;
    int structural = 0;  // domains empty at any σ, degrees dominating
    int budget = 0;      // domains empty at this σ only
    int local = 0;       // finite bound above σ, multiset bound within it
    int tree = 0;        // only the spanning-tree bound above σ
    int outside = 0;     // of those, only after the outside pass
    int pairs = 0;
    for (int seed = 0; seed < 220; ++seed) {
      Rng rng(seed * 7919 + 13);
      const bool large = seed % 11 == 10;
      RandomGraphOptions topt;
      topt.num_vertices = large ? 66 + seed % 7 : 8 + seed % 3;
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
        ++pairs;
        const double distance =
            MinSuperimposedDistanceBruteForce(query, target, *model);
        GraphCertificate certificate(query, c.spec);
        const double wide = certificate.LowerBound(target, kWide);
        // kWide is a σ at or above every finite distance, so the bound at
        // it is checked against the distance, whatever that is.
        if (distance != kInfiniteDistance) {
          EXPECT_LE(wide, distance + 1e-9);
        }
        if (wide == kInfiniteDistance) {
          EXPECT_EQ(distance, kInfiniteDistance);
          if (DegreesDominate(query, target)) {
            ++structural;
          } else {
            ++degree_rejected;
          }
        }
        for (double sigma : sigmas) {
          SCOPED_TRACE("sigma " + std::to_string(sigma));
          const double bound = certificate.LowerBound(target, sigma);
          const double local_bound =
              GraphCertificatePeer::LocalBound(&certificate, target, sigma);
          const double inside =
              GraphCertificatePeer::InsideOnly(&certificate, target, sigma);
          EXPECT_LE(local_bound, inside);
          EXPECT_LE(inside, bound);
          if (distance <= sigma) {
            EXPECT_LE(bound, distance + 1e-9);
            exact_positive += (bound > 0 && bound == distance) ? 1 : 0;
          } else if (bound > sigma && local_bound <= sigma) {
            ++tree;
            outside += inside <= sigma ? 1 : 0;
          } else if (bound > sigma && wide != kInfiniteDistance) {
            if (bound == kInfiniteDistance) {
              ++budget;
            } else if (MultisetBound(query, target, c.spec) <= sigma) {
              ++local;
            }
          }
          // The query's own graph is at distance 0 and must pass.
          EXPECT_EQ(certificate.LowerBound(query, sigma), 0.0);
        }
      }
    }
    EXPECT_EQ(pairs, 440);
    EXPECT_GT(degree_rejected, 0);
    EXPECT_GT(structural, 0);
    if (c.spec.type == DistanceType::kMutation) {
      EXPECT_GT(exact_positive, 0);
    }
    structural_total += structural;
    budget_total += budget;
    local_total += local;
    tree_total += tree;
    outside_total += outside;
  }
  EXPECT_GT(structural_total, 0);
  EXPECT_GT(budget_total, 0);
  EXPECT_GT(local_total, 0);
  EXPECT_GT(tree_total, 0);
  EXPECT_GT(outside_total, 0);
}

// VerifyCandidates keeps a candidate exactly when the brute-force distance
// is within σ, over the certificate suite's generated pairs (each query
// against its own target and the next seed's), for every spec.
TEST(VerifierOracleTest, KeepsExactlyTheGraphsWithinSigma) {
  const std::vector<double> sigmas = {0, 0.5, 1, 2, 3, 5};
  constexpr int kSeeds = 120;
  for (const SpecCase& c : Specs()) {
    SCOPED_TRACE(c.name);
    const auto model = c.spec.MakeCostModel();
    GraphDatabase targets;
    std::vector<Graph> queries;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng rng(seed * 7919 + 13);
      RandomGraphOptions topt;
      topt.num_vertices = 8 + seed % 3;
      topt.num_edges = topt.num_vertices + 2 + seed % 4;
      topt.max_weight = 4.0;
      targets.Add(GenerateRandomConnectedGraph(topt, &rng));
      queries.push_back(MutatedSubgraph(targets.at(seed), 3 + seed % 4, &rng));
      RandomGraphOptions qopt;
      qopt.num_vertices = 4 + seed % 3;
      qopt.num_edges = qopt.num_vertices - 1 + seed % 3;
      qopt.max_weight = 4.0;
      queries.push_back(GenerateRandomConnectedGraph(qopt, &rng));
    }
    int kept = 0;
    int dropped = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      const int own = static_cast<int>(i / 2);
      const std::vector<int> candidates = {own, (own + 1) % kSeeds};
      double distance[2];
      for (int j = 0; j < 2; ++j) {
        distance[j] = MinSuperimposedDistanceBruteForce(
            queries[i], targets.at(candidates[j]), *model);
      }
      for (double sigma : sigmas) {
        std::vector<int> want;
        for (int j = 0; j < 2; ++j) {
          if (distance[j] <= sigma) want.push_back(candidates[j]);
        }
        std::sort(want.begin(), want.end());
        std::vector<int> sorted = candidates;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(VerifyCandidates(targets, queries[i], sorted, c.spec, sigma)
                      .answers,
                  want)
            << "sigma " << sigma;
        kept += static_cast<int>(want.size());
        dropped += 2 - static_cast<int>(want.size());
      }
    }
    EXPECT_GT(kept, 0);
    EXPECT_GT(dropped, 0);
  }
}

}  // namespace
}  // namespace pis
