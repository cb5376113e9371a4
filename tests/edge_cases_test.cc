// Degenerate-configuration behaviour: empty feature sets, empty databases,
// queries with no indexed fragments — the engines must degrade to correct
// (if unpruned) answers, never crash or drop results.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/naive_search.h"
#include "core/pis.h"
#include "core/topk.h"
#include "core/topo_prune.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "index/sharded_index.h"

namespace pis {
namespace {

Graph SingleEdgeFeature() {
  Graph edge;
  edge.AddVertex(kNoLabel);
  edge.AddVertex(kNoLabel);
  EXPECT_TRUE(edge.AddEdge(0, 1).ok());
  return edge;
}

TEST(EdgeCasesTest, EmptyFeatureSetDegradesToNoPruning) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 5;
  gopt.mean_vertices = 12;
  gopt.max_vertices = 25;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(10);
  auto index = ShardedFragmentIndex::Build(db, {}, {}, 1);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().num_classes(), 0);

  QuerySampler sampler(&db, {.seed = 2, .strip_vertex_labels = true});
  auto query = sampler.Sample(6);
  ASSERT_TRUE(query.ok());
  PisOptions options;
  options.sigma = 1;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query.value());
  ASSERT_TRUE(result.ok());
  // No fragments -> no partition pruning: the whole database reaches the
  // certificate, which may still exclude graphs; answers exact.
  EXPECT_EQ(result.value().stats.candidates_after_partition,
            static_cast<size_t>(db.size()));
  EXPECT_LE(result.value().candidates.size(), static_cast<size_t>(db.size()));
  SearchResult naive =
      NaiveSearch(db, query.value(), index.value().options().spec, 1);
  EXPECT_EQ(result.value().answers, naive.answers);

  TopoPruneEngine topo(&db, &index.value());
  auto topo_result = topo.Search(query.value(), 1);
  ASSERT_TRUE(topo_result.ok());
  EXPECT_EQ(topo_result.value().answers, naive.answers);
}

TEST(EdgeCasesTest, EmptyDatabase) {
  GraphDatabase db;
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  Graph query = SingleEdgeFeature();
  PisEngine engine(&db, &index.value(), {});
  auto result = engine.Search(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
}

TEST(EdgeCasesTest, SingleEdgeQuery) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 9;
  gopt.mean_vertices = 10;
  gopt.max_vertices = 20;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(8);
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  Graph query = SingleEdgeFeature();
  query.SetEdgeLabel(0, 1);  // "single" bond label from the generator vocab
  PisOptions options;
  options.sigma = 0;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query);
  ASSERT_TRUE(result.ok());
  SearchResult naive = NaiveSearch(db, query, index.value().options().spec, 0);
  EXPECT_EQ(result.value().answers, naive.answers);
  EXPECT_FALSE(result.value().answers.empty());  // single bonds are ubiquitous
}

TEST(EdgeCasesTest, QueryLargerThanEveryGraph) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 11;
  gopt.mean_vertices = 10;
  gopt.max_vertices = 16;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(6);
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  // A long path no 16-vertex molecule can contain.
  Graph query;
  query.AddVertex(kNoLabel);
  for (int i = 0; i < 40; ++i) {
    query.AddVertex(kNoLabel);
    ASSERT_TRUE(query.AddEdge(i, i + 1, 1).ok());
  }
  PisOptions options;
  options.sigma = 3;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
}

TEST(EdgeCasesTest, MismatchedIndexAndDatabaseIsFatalInDebug) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(4);
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  GraphDatabase other = gen.Generate(7);
  EXPECT_DEATH({ PisEngine engine(&other, &index.value(), {}); },
               "different database");
}

TEST(EdgeCasesTest, InvalidBuildOptionsRejected) {
  GraphDatabase db;
  FragmentIndexOptions bad;
  bad.min_fragment_edges = 0;
  EXPECT_FALSE(FragmentIndex::Build(db, {}, bad).ok());
  bad.min_fragment_edges = 5;
  bad.max_fragment_edges = 3;
  EXPECT_FALSE(FragmentIndex::Build(db, {}, bad).ok());
}

// ---- Degenerate incremental updates -----------------------------------

TEST(UpdateEdgeCasesTest, RemovingNonexistentIdIsNotFound) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(5);
  auto index = FragmentIndex::Build(db, {SingleEdgeFeature()}, {});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().RemoveGraph(-1).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.value().RemoveGraph(5).code(), StatusCode::kNotFound);
  // A double remove is NotFound too, and the live count only drops once.
  ASSERT_TRUE(index.value().RemoveGraph(2).ok());
  EXPECT_EQ(index.value().RemoveGraph(2).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.value().num_live(), 4);

  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 2;
  auto sharded =
      ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, iopt, 3);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().RemoveGraph(-1).code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded.value().RemoveGraph(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(sharded.value().RemoveGraph(4).ok());
  EXPECT_EQ(sharded.value().RemoveGraph(4).code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded.value().num_live(), 4);
}

TEST(UpdateEdgeCasesTest, AddingTheSameGraphTwiceGetsDistinctIds) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 31;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(6);
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  // There is no "duplicate id" to reject: ids are assigned by the index, so
  // re-adding identical content simply creates a second live graph.
  Graph dup = db.at(0);
  auto first = index.value().AddGraph(dup);
  auto second = index.value().AddGraph(dup);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value(), 6);
  EXPECT_EQ(second.value(), 7);
  db.Add(dup);
  db.Add(dup);

  // Both copies answer queries alongside the original.
  PisOptions options;
  options.sigma = 0;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(db.at(0));
  ASSERT_TRUE(result.ok());
  SearchResult naive = NaiveSearch(db, db.at(0), index.value().options().spec, 0);
  EXPECT_EQ(result.value().answers, naive.answers);
  for (int gid : {0, 6, 7}) {
    EXPECT_NE(std::find(result.value().answers.begin(),
                        result.value().answers.end(), gid),
              result.value().answers.end());
  }
}

TEST(UpdateEdgeCasesTest, RemovingEveryGraphYieldsEmptyResults) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 13;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(6);
  auto index = ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, {}, 1);
  ASSERT_TRUE(index.ok());
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 2;
  auto sharded =
      ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, iopt, 3);
  ASSERT_TRUE(sharded.ok());
  for (int gid = 0; gid < db.size(); ++gid) {
    ASSERT_TRUE(index.value().RemoveGraph(gid).ok());
    ASSERT_TRUE(sharded.value().RemoveGraph(gid).ok());
  }

  QuerySampler sampler(&db, {.seed = 8, .strip_vertex_labels = true});
  auto query = sampler.Sample(4);
  ASSERT_TRUE(query.ok());
  PisOptions options;
  options.sigma = 3;

  // PIS over one and three shards, topoPrune, and top-k must all come back
  // empty (no candidates leak through the no-pruning path) without
  // touching a tombstoned graph.
  for (const ShardedFragmentIndex* idx : {&index.value(), &sharded.value()}) {
    EXPECT_EQ(idx->num_live(), 0);
    PisEngine engine(&db, idx, options);
    auto result = engine.Search(query.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().candidates.empty());
    EXPECT_TRUE(result.value().answers.empty());

    TopoPruneEngine topo(&db, idx);
    auto topo_result = topo.Search(query.value(), options.sigma);
    ASSERT_TRUE(topo_result.ok()) << topo_result.status().ToString();
    EXPECT_TRUE(topo_result.value().candidates.empty());
    EXPECT_TRUE(topo_result.value().answers.empty());
  }

  TopKOptions topk;
  topk.k = 3;
  topk.max_sigma = 8;
  auto nearest = TopKSearch(db, index.value(), query.value(), topk);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  EXPECT_TRUE(nearest.value().results.empty());
}

// ---- Degenerate compactions -------------------------------------------

std::string SaveBytes(const FragmentIndex& index) {
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  return out.str();
}

TEST(CompactionEdgeCasesTest, CompactingAnEmptyIndexIsANoOp) {
  GraphDatabase db;
  auto index = FragmentIndex::Build(db, {SingleEdgeFeature()}, {});
  ASSERT_TRUE(index.ok());
  const std::string before = SaveBytes(index.value());
  EXPECT_TRUE(index.value().Compact().empty());
  EXPECT_EQ(index.value().db_size(), 0);
  EXPECT_EQ(index.value().compaction_epoch(), 0u);
  EXPECT_EQ(SaveBytes(index.value()), before);

  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 2;
  auto sharded =
      ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, iopt, 3);
  ASSERT_TRUE(sharded.ok());
  auto compacted = sharded.value().Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted.value(), 0);
  EXPECT_EQ(sharded.value().compaction_epoch(), 0);
}

TEST(CompactionEdgeCasesTest, CompactWithZeroTombstonesIsByteIdentical) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 17;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(8);
  auto index = FragmentIndex::Build(db, {SingleEdgeFeature()}, {});
  ASSERT_TRUE(index.ok());
  const std::string before = SaveBytes(index.value());
  const std::vector<int> remap = index.value().Compact();
  // Identity remap, nothing rewritten, not even the epoch word.
  for (int gid = 0; gid < db.size(); ++gid) EXPECT_EQ(remap[gid], gid);
  EXPECT_EQ(index.value().compaction_epoch(), 0u);
  EXPECT_EQ(SaveBytes(index.value()), before);
}

TEST(CompactionEdgeCasesTest, CompactAfterRemovingEveryGraph) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 23;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(6);
  auto index = FragmentIndex::Build(db, {SingleEdgeFeature()}, {});
  ASSERT_TRUE(index.ok());
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 2;
  auto sharded =
      ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, iopt, 3);
  ASSERT_TRUE(sharded.ok());
  for (int gid = 0; gid < db.size(); ++gid) {
    ASSERT_TRUE(index.value().RemoveGraph(gid).ok());
    ASSERT_TRUE(sharded.value().RemoveGraph(gid).ok());
  }
  const std::vector<int> remap = index.value().Compact();
  for (int mapped : remap) EXPECT_EQ(mapped, -1);
  EXPECT_EQ(index.value().db_size(), 0);
  EXPECT_EQ(index.value().num_live(), 0);
  EXPECT_TRUE(index.value().tombstones().empty());
  ASSERT_TRUE(sharded.value().Compact().ok());
  // The global record of the removals outlives their postings.
  EXPECT_EQ(sharded.value().num_live(), 0);
  EXPECT_EQ(sharded.value().tombstones().size(), 6u);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(sharded.value().shard_size(s), 0);

  // Both indexes still answer (with nothing) over their aligned databases;
  // the re-densified FragmentIndex joins an engine as a one-shard index.
  GraphDatabase empty_db;
  QuerySampler sampler(&db, {.seed = 8, .strip_vertex_labels = true});
  auto query = sampler.Sample(4);
  ASSERT_TRUE(query.ok());
  PisOptions options;
  options.sigma = 3;
  ShardedFragmentIndex flat =
      ShardedFragmentIndex::FromFragmentIndex(index.MoveValue());
  PisEngine engine(&empty_db, &flat, options);
  auto result = engine.Search(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().answers.empty());
  PisEngine sharded_engine(&db, &sharded.value(), options);
  auto sharded_result = sharded_engine.Search(query.value());
  ASSERT_TRUE(sharded_result.ok());
  EXPECT_TRUE(sharded_result.value().answers.empty());

  // And the id space regrows cleanly: fresh adds pick up where ids left
  // off (sharded — slots are immortal) / from zero (flat — re-densified).
  auto fresh_flat = flat.AddGraph(db.at(0));
  ASSERT_TRUE(fresh_flat.ok());
  EXPECT_EQ(fresh_flat.value(), 0);
  auto fresh_sharded = sharded.value().AddGraph(db.at(0));
  ASSERT_TRUE(fresh_sharded.ok());
  EXPECT_EQ(fresh_sharded.value(), 6);
  EXPECT_EQ(sharded.value().num_live(), 1);
}

TEST(CompactionEdgeCasesTest, DoubleCompactIsIdempotent) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 29;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(10);
  auto index = FragmentIndex::Build(db, {SingleEdgeFeature()}, {});
  ASSERT_TRUE(index.ok());
  for (int gid : {1, 3, 8}) ASSERT_TRUE(index.value().RemoveGraph(gid).ok());
  index.value().Compact();
  EXPECT_EQ(index.value().compaction_epoch(), 1u);
  const std::string once = SaveBytes(index.value());
  // The second compact sees zero tombstones and must change nothing.
  const std::vector<int> remap = index.value().Compact();
  for (int gid = 0; gid < index.value().db_size(); ++gid) {
    EXPECT_EQ(remap[gid], gid);
  }
  EXPECT_EQ(index.value().compaction_epoch(), 1u);
  EXPECT_EQ(SaveBytes(index.value()), once);

  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 2;
  auto sharded =
      ShardedFragmentIndex::Build(db, {SingleEdgeFeature()}, iopt, 2);
  ASSERT_TRUE(sharded.ok());
  for (int gid : {1, 3, 8}) {
    ASSERT_TRUE(sharded.value().RemoveGraph(gid).ok());
  }
  ASSERT_TRUE(sharded.value().Compact().ok());
  const int epoch = sharded.value().compaction_epoch();
  auto again = sharded.value().Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0);
  EXPECT_EQ(sharded.value().compaction_epoch(), epoch);
}

}  // namespace
}  // namespace pis
