#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "core/pis.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "mining/gspan.h"

namespace pis {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    ParallelFor(100, threads, [&](size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ParallelForTest, EmptyAndSingle) {
  int calls = 0;
  ParallelFor(0, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, 4, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> total{0};
  ParallelFor(3, 16, [&](size_t) { total++; });
  EXPECT_EQ(total.load(), 3);
}

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1); }

TEST(ParallelBuildTest, MatchesSequentialBuild) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 17;
  gopt.mean_vertices = 14;
  gopt.max_vertices = 40;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(30);
  GspanOptions mine;
  mine.min_support = 3;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, mine);
  ASSERT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);

  FragmentIndexOptions seq_opts;
  seq_opts.max_fragment_edges = 4;
  auto seq = FragmentIndex::Build(db, features, seq_opts);
  ASSERT_TRUE(seq.ok());
  std::ostringstream seq_bytes;
  ASSERT_TRUE(seq.value().Save(seq_bytes).ok());

  // 30 graphs over 2, 4 and 7 contiguous ranges: every range boundary falls
  // mid-database, and each range scans with its own IndexScan.
  std::vector<ShardedFragmentIndex> indexes;
  for (int threads : {2, 4, 7}) {
    FragmentIndexOptions par_opts = seq_opts;
    par_opts.num_threads = threads;
    auto par = FragmentIndex::Build(db, features, par_opts);
    ASSERT_TRUE(par.ok());
    const FragmentIndexStats& a = seq.value().stats();
    const FragmentIndexStats& b = par.value().stats();
    EXPECT_EQ(a.num_classes, b.num_classes) << "threads=" << threads;
    EXPECT_EQ(a.num_fragment_occurrences, b.num_fragment_occurrences)
        << "threads=" << threads;
    EXPECT_EQ(a.num_sequences_inserted, b.num_sequences_inserted)
        << "threads=" << threads;
    EXPECT_EQ(a.num_subsets_enumerated, b.num_subsets_enumerated)
        << "threads=" << threads;
    std::ostringstream par_bytes;
    ASSERT_TRUE(par.value().Save(par_bytes).ok());
    EXPECT_TRUE(seq_bytes.str() == par_bytes.str()) << "threads=" << threads;
    indexes.push_back(ShardedFragmentIndex::FromFragmentIndex(par.MoveValue()));
  }
  for (int shards : {1, 3}) {
    auto sharded = ShardedFragmentIndex::Build(db, features, seq_opts, shards);
    ASSERT_TRUE(sharded.ok());
    indexes.push_back(sharded.MoveValue());
  }

  // Identical query behaviour end to end.
  const ShardedFragmentIndex seq_index =
      ShardedFragmentIndex::FromFragmentIndex(seq.MoveValue());
  QuerySampler sampler(&db, {.seed = 5, .strip_vertex_labels = true});
  for (int trial = 0; trial < 4; ++trial) {
    auto query = sampler.Sample(8);
    ASSERT_TRUE(query.ok());
    PisOptions options;
    options.sigma = 2;
    PisEngine seq_engine(&db, &seq_index, options);
    auto a = seq_engine.Search(query.value());
    ASSERT_TRUE(a.ok());
    for (const ShardedFragmentIndex& index : indexes) {
      PisEngine engine(&db, &index, options);
      auto b = engine.Search(query.value());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value().answers, b.value().answers);
      EXPECT_EQ(a.value().candidates, b.value().candidates);
    }
  }
}

}  // namespace
}  // namespace pis
