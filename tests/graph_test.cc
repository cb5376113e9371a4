#include "graph/graph.h"

#include <gtest/gtest.h>

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
