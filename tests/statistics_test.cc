#include "graph/statistics.h"

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "graph/label_map.h"

namespace pis {
namespace {

TEST(ScalarSummaryTest, TracksMinMaxMean) {
  ScalarSummary s;
  EXPECT_EQ(s.Mean(), 0);
  s.Add(2);
  s.Add(6);
  s.Add(4);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
}

TEST(StatisticsTest, SmallHandBuiltDatabase) {
  GraphDatabase db;
  Graph g;  // triangle, labels C=1 ring with bond 1
  for (int i = 0; i < 3; ++i) g.AddVertex(1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(g.AddEdge(i, (i + 1) % 3, 7).ok());
  db.Add(g);
  Graph path;  // 2-vertex path, mixed labels
  path.AddVertex(1);
  path.AddVertex(2);
  ASSERT_TRUE(path.AddEdge(0, 1, 8).ok());
  db.Add(path);

  DatabaseStatistics stats = ComputeStatistics(db);
  EXPECT_EQ(stats.num_graphs, 2);
  EXPECT_DOUBLE_EQ(stats.vertices_per_graph.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.edges_per_graph.Mean(), 2.0);
  EXPECT_EQ(stats.vertex_label_counts.at(1), 4u);
  EXPECT_EQ(stats.vertex_label_counts.at(2), 1u);
  EXPECT_EQ(stats.edge_label_counts.at(7), 3u);
  EXPECT_DOUBLE_EQ(stats.VertexLabelFraction(1), 0.8);
  EXPECT_DOUBLE_EQ(stats.EdgeLabelFraction(8), 0.25);
  EXPECT_EQ(stats.cycle_rank_counts.at(1), 1u);  // triangle
  EXPECT_EQ(stats.cycle_rank_counts.at(0), 1u);  // tree
  EXPECT_NE(stats.ToString().find("graphs: 2"), std::string::npos);
}

TEST(StatisticsTest, EmptyDatabase) {
  DatabaseStatistics stats = ComputeStatistics(GraphDatabase{});
  EXPECT_EQ(stats.num_graphs, 0);
  EXPECT_DOUBLE_EQ(stats.VertexLabelFraction(1), 0.0);
  EXPECT_DOUBLE_EQ(stats.EdgeLabelFraction(1), 0.0);
}

TEST(StatisticsTest, GeneratorMatchesPaperWorkloadShape) {
  // The generator stands in for the paper's AIDS dataset: carbon-dominated
  // labels, single-bond-dominated edges, mean ~25 vertices / ~27 edges.
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(800);
  DatabaseStatistics stats = ComputeStatistics(db);
  const ChemicalVocabulary& vocab = gen.vocabulary();
  Label carbon = vocab.atoms.Find("C").value();
  EXPECT_GT(stats.VertexLabelFraction(carbon), 0.60);
  Label single = vocab.bonds.Find("single").value();
  Label aromatic = vocab.bonds.Find("aromatic").value();
  EXPECT_GT(stats.EdgeLabelFraction(single) + stats.EdgeLabelFraction(aromatic),
            0.75);
  EXPECT_GT(stats.vertices_per_graph.Mean(), 18);
  EXPECT_LT(stats.vertices_per_graph.Mean(), 38);
  EXPECT_GT(stats.edges_per_graph.Mean(), stats.vertices_per_graph.Mean());
  EXPECT_LT(stats.degree.max, 7);  // chemically plausible valences
}

}  // namespace
}  // namespace pis
