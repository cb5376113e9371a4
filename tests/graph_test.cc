#include "graph/graph.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/generator.h"
#include "graph/io.h"
#include "graph/label_map.h"
#include "util/random.h"

namespace pis {
namespace {

Graph Triangle() {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 10).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 20).ok());
  EXPECT_TRUE(g.AddEdge(2, 0, 30).ok());
  return g;
}

TEST(GraphTest, BasicConstruction) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.VertexLabel(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.Empty());
}

TEST(GraphTest, AddEdgeRejectsBadInput) {
  Graph g;
  g.AddVertex();
  g.AddVertex();
  EXPECT_EQ(g.AddEdge(0, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(-1, 1).status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(1, 0).status().code(), StatusCode::kAlreadyExists);
}

TEST(GraphTest, FindEdgeBothDirections) {
  Graph g = Triangle();
  EdgeId e = g.FindEdge(1, 2);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.GetEdge(e).label, 20);
  EXPECT_EQ(g.FindEdge(2, 1), e);
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);
}

TEST(GraphTest, Connectivity) {
  Graph g;
  EXPECT_TRUE(g.IsConnected());  // empty graph
  g.AddVertex();
  EXPECT_TRUE(g.IsConnected());
  g.AddVertex();
  EXPECT_FALSE(g.IsConnected());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, EdgeSubgraphRenumbersVertices) {
  Graph g = Triangle();
  std::vector<VertexId> vertex_map;
  Graph sub = g.EdgeSubgraph({1}, &vertex_map);  // edge (1,2)
  EXPECT_EQ(sub.NumVertices(), 2);
  EXPECT_EQ(sub.NumEdges(), 1);
  EXPECT_EQ(vertex_map, (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(sub.VertexLabel(0), 2);
  EXPECT_EQ(sub.VertexLabel(1), 3);
  EXPECT_EQ(sub.GetEdge(0).label, 20);
}

TEST(GraphTest, RelabeledPermutesVertices) {
  Graph g = Triangle();
  Graph p = g.Relabeled({2, 0, 1});  // new 0 = old 2
  EXPECT_EQ(p.VertexLabel(0), 3);
  EXPECT_EQ(p.VertexLabel(1), 1);
  EXPECT_EQ(p.VertexLabel(2), 2);
  // Edge (old 0, old 1) label 10 becomes (new 1, new 2).
  EdgeId e = p.FindEdge(1, 2);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(p.GetEdge(e).label, 10);
}

TEST(GraphTest, SkeletonStripsLabels) {
  Graph g = Triangle();
  Graph s = g.Skeleton();
  EXPECT_EQ(s.NumVertices(), 3);
  EXPECT_EQ(s.NumEdges(), 3);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(s.VertexLabel(v), kNoLabel);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(s.GetEdge(e).label, kNoLabel);
}

TEST(GraphTest, EqualityIgnoresEndpointOrder) {
  Graph a = Triangle();
  Graph b;
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddVertex(3);
  ASSERT_TRUE(b.AddEdge(1, 0, 10).ok());  // reversed endpoints
  ASSERT_TRUE(b.AddEdge(2, 1, 20).ok());
  ASSERT_TRUE(b.AddEdge(0, 2, 30).ok());
  EXPECT_TRUE(a == b);
  b.SetEdgeLabel(0, 99);
  EXPECT_FALSE(a == b);
}

// The incidence lists a Graph must report, kept the simplest way: one list
// per vertex, appended to in AddEdge order.
struct ReferenceGraph {
  std::vector<std::vector<EdgeId>> incident;
  std::vector<std::pair<VertexId, VertexId>> edges;

  bool Has(VertexId u, VertexId v) const {
    for (EdgeId e : incident[u]) {
      if (edges[e].first == v || edges[e].second == v) return true;
    }
    return false;
  }
};

std::vector<EdgeId> Incident(const Graph& g, VertexId v) {
  const std::span<const EdgeId> edges = g.IncidentEdges(v);
  return {edges.begin(), edges.end()};
}

// Checks incidence order, degrees and FindEdge in both orientations.
void ExpectMatches(const Graph& g, const ReferenceGraph& ref,
                   const std::string& where) {
  ASSERT_EQ(g.NumVertices(), static_cast<int>(ref.incident.size())) << where;
  ASSERT_EQ(g.NumEdges(), static_cast<int>(ref.edges.size())) << where;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(Incident(g, v), ref.incident[v]) << where << " vertex " << v;
    EXPECT_EQ(g.Degree(v), static_cast<int>(ref.incident[v].size()))
        << where << " vertex " << v;
  }
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = ref.edges[e];
    EXPECT_EQ(g.FindEdge(u, v), e) << where << " edge " << e;
    EXPECT_EQ(g.FindEdge(v, u), e) << where << " edge " << e;
  }
}

TEST(GraphTest, IncidenceMatchesReferenceUnderRandomInterleaving) {
  Rng rng(20240607);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    Graph g;
    ReferenceGraph ref;
    for (int step = 0; step < 120; ++step) {
      if (g.NumVertices() < 2 || rng.Bernoulli(0.3)) {
        // Vertices keep arriving after edges: their empty ranges go last.
        ASSERT_EQ(g.AddVertex(rng.UniformInt(1, 4), rng.UniformDouble()),
                  static_cast<VertexId>(ref.incident.size()));
        ref.incident.emplace_back();
      } else {
        // Endpoints one past either end are out of range.
        const VertexId u = rng.UniformInt(-1, g.NumVertices());
        const VertexId v = rng.UniformInt(-1, g.NumVertices());
        const bool in_range =
            u >= 0 && v >= 0 && u < g.NumVertices() && v < g.NumVertices();
        Result<EdgeId> added = g.AddEdge(u, v, rng.UniformInt(1, 3), 0.5);
        if (!in_range || u == v) {
          EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
        } else if (ref.Has(u, v)) {
          EXPECT_EQ(added.status().code(), StatusCode::kAlreadyExists);
        } else {
          ASSERT_TRUE(added.ok()) << added.status().ToString();
          EXPECT_EQ(added.value(), static_cast<EdgeId>(ref.edges.size()));
          ref.incident[u].push_back(added.value());
          ref.incident[v].push_back(added.value());
          ref.edges.emplace_back(u, v);
        }
      }
      ExpectMatches(g, ref, where + " step " + std::to_string(step));
      if (testing::Test::HasFailure()) return;
    }
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(g.HasEdge(u, v), u != v && ref.Has(u, v)) << where;
      }
    }

    Graph copy = g;
    EXPECT_TRUE(copy == g) << where;
    ExpectMatches(copy, ref, where + " copy");
    Graph moved = std::move(copy);
    ExpectMatches(moved, ref, where + " move");
    Graph assigned;
    assigned = std::move(moved);
    ExpectMatches(assigned, ref, where + " move-assign");

    Graph skeleton = g.Skeleton();
    ExpectMatches(skeleton, ref, where + " skeleton");

    // Relabeled keeps edge ids and order, so old vertex perm[i]'s list
    // becomes new vertex i's.
    std::vector<VertexId> perm(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    Graph relabeled = g.Relabeled(perm);
    ReferenceGraph permuted;
    std::vector<VertexId> inverse(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      permuted.incident.push_back(ref.incident[perm[i]]);
      inverse[perm[i]] = static_cast<VertexId>(i);
    }
    for (const auto& [u, v] : ref.edges) {
      permuted.edges.emplace_back(inverse[u], inverse[v]);
    }
    ExpectMatches(relabeled, permuted, where + " relabeled");

    // EdgeSubgraph over a shuffled half of the edges: vertices renumber in
    // first-appearance order, edges take the subset's order.
    std::vector<EdgeId> subset(g.NumEdges());
    for (EdgeId e = 0; e < g.NumEdges(); ++e) subset[e] = e;
    rng.Shuffle(&subset);
    subset.resize(subset.size() / 2);
    std::vector<VertexId> vertex_map;
    Graph sub = g.EdgeSubgraph(subset, &vertex_map);
    ReferenceGraph expected_sub;
    std::vector<VertexId> old_to_new(g.NumVertices(), kInvalidVertex);
    std::vector<VertexId> new_to_old;
    auto map_vertex = [&](VertexId old) {
      if (old_to_new[old] == kInvalidVertex) {
        old_to_new[old] = static_cast<VertexId>(new_to_old.size());
        new_to_old.push_back(old);
        expected_sub.incident.emplace_back();
      }
      return old_to_new[old];
    };
    for (EdgeId e : subset) {
      const VertexId nu = map_vertex(ref.edges[e].first);
      const VertexId nv = map_vertex(ref.edges[e].second);
      const auto id = static_cast<EdgeId>(expected_sub.edges.size());
      expected_sub.incident[nu].push_back(id);
      expected_sub.incident[nv].push_back(id);
      expected_sub.edges.emplace_back(nu, nv);
    }
    EXPECT_EQ(vertex_map, new_to_old) << where;
    ExpectMatches(sub, expected_sub, where + " edge subgraph");

    // A stored graph is trimmed to size but otherwise the same graph.
    GraphDatabase db;
    const int id = db.Add(g);
    EXPECT_TRUE(db.at(id) == g) << where;
    ExpectMatches(db.at(id), ref, where + " stored");
    if (testing::Test::HasFailure()) return;
  }
}

TEST(GraphDatabaseTest, Stats) {
  GraphDatabase db;
  EXPECT_EQ(db.AverageVertices(), 0);
  db.Add(Triangle());
  Graph path;
  path.AddVertex();
  path.AddVertex();
  ASSERT_TRUE(path.AddEdge(0, 1).ok());
  db.Add(path);
  EXPECT_EQ(db.size(), 2);
  EXPECT_DOUBLE_EQ(db.AverageVertices(), 2.5);
  EXPECT_DOUBLE_EQ(db.AverageEdges(), 2.0);
  EXPECT_EQ(db.MaxVertices(), 3);
  EXPECT_EQ(db.MaxEdges(), 3);
}

TEST(GraphDatabaseTest, SliceSharesGraphsRenumberedFromZero) {
  MoleculeGenerator gen;
  const GraphDatabase db = gen.Generate(5);
  const GraphDatabase middle = db.Slice(1, 4);
  ASSERT_EQ(middle.size(), 3);
  for (int id = 0; id < middle.size(); ++id) {
    EXPECT_EQ(&middle.at(id), &db.at(id + 1)) << id;
  }
  EXPECT_TRUE(db.Slice(2, 2).empty());
  EXPECT_TRUE(db.Slice(5, 5).empty());
  const GraphDatabase full = db.Slice(0, db.size());
  ASSERT_EQ(full.size(), db.size());
  for (int id = 0; id < db.size(); ++id) EXPECT_EQ(&full.at(id), &db.at(id));
}

TEST(LabelMapTest, InternAndLookup) {
  LabelMap map;
  Label c = map.GetOrAdd("C");
  Label n = map.GetOrAdd("N");
  EXPECT_NE(c, n);
  EXPECT_EQ(map.GetOrAdd("C"), c);
  EXPECT_EQ(map.GetOrAdd(""), kNoLabel);
  ASSERT_TRUE(map.Find("N").ok());
  EXPECT_EQ(map.Find("N").value(), n);
  EXPECT_EQ(map.Find("Xx").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(map.Name(c).value(), "C");
  EXPECT_EQ(map.Name(999).status().code(), StatusCode::kOutOfRange);
}

TEST(GeneratorTest, MoleculesAreConnectedAndSimple) {
  MoleculeGeneratorOptions options;
  options.seed = 123;
  MoleculeGenerator gen(options);
  for (int i = 0; i < 50; ++i) {
    Graph g = gen.Next();
    EXPECT_TRUE(g.IsConnected());
    EXPECT_GE(g.NumVertices(), 5);
    EXPECT_LE(g.NumVertices(), options.max_vertices + 8);
  }
}

TEST(GeneratorTest, DeterministicUnderSeed) {
  MoleculeGeneratorOptions options;
  options.seed = 99;
  MoleculeGenerator a(options);
  MoleculeGenerator b(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(a.Next() == b.Next());
  }
}

TEST(GeneratorTest, DatabaseStatisticsMatchPaperShape) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(500);
  // The paper's sample: ~25 vertices / ~27 edges average.
  EXPECT_GT(db.AverageVertices(), 15);
  EXPECT_LT(db.AverageVertices(), 40);
  EXPECT_GT(db.AverageEdges(), db.AverageVertices() * 0.9);
  EXPECT_GT(db.MaxVertices(), 60);  // heavy tail exists
}

TEST(RandomGraphTest, RespectsBoundsAndConnectivity) {
  Rng rng(5);
  RandomGraphOptions options;
  options.num_vertices = 12;
  options.num_edges = 20;
  for (int i = 0; i < 20; ++i) {
    Graph g = GenerateRandomConnectedGraph(options, &rng);
    EXPECT_EQ(g.NumVertices(), 12);
    EXPECT_GE(g.NumEdges(), 11);
    EXPECT_LE(g.NumEdges(), 20);
    EXPECT_TRUE(g.IsConnected());
  }
}

TEST(IoTest, RoundTripDatabase) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(20);
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphDatabase(db, out).ok());
  std::istringstream in(out.str());
  Result<GraphDatabase> back = ReadGraphDatabase(in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), db.size());
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.at(i) == back.value().at(i)) << "graph " << i;
  }
}

TEST(IoTest, ParseErrors) {
  EXPECT_EQ(ParseGraph("v 0 1\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseGraph("t # 0\nv 1 1\n").status().code(),
            StatusCode::kParseError);  // non-dense vertex ids
  EXPECT_EQ(ParseGraph("t # 0\nv 0 1\ne 0 0 1\n").status().code(),
            StatusCode::kParseError);  // self loop
  EXPECT_EQ(ParseGraph("garbage\n").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseGraph("t # 0\nv 0 1\nt # 1\nv 0 1\n").status().code(),
            StatusCode::kParseError);  // two records
}

TEST(IoTest, CommentsAndWeights) {
  const char* text =
      "# a comment\n"
      "t # 0\n"
      "v 0 1 2.5\n"
      "v 1 2\n"
      "e 0 1 7 1.25\n";
  Result<Graph> g = ParseGraph(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g.value().VertexWeight(0), 2.5);
  EXPECT_DOUBLE_EQ(g.value().GetEdge(0).weight, 1.25);
}

}  // namespace
}  // namespace pis
