#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/naive_search.h"
#include "core/pis.h"
#include "core/verifier.h"
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

TEST(ParallelVerifyTest, MatchesSequential) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(40);
  QuerySampler sampler(&db, {.seed = 3, .strip_vertex_labels = true});
  auto query = sampler.Sample(10);
  ASSERT_TRUE(query.ok());
  std::vector<int> candidates(db.size());
  std::iota(candidates.begin(), candidates.end(), 0);
  DistanceSpec spec = DistanceSpec::EdgeMutation();
  VerifyResult seq = VerifyCandidates(db, query.value(), candidates, spec, 2, 1);
  VerifyResult par = VerifyCandidates(db, query.value(), candidates, spec, 2, 4);
  EXPECT_EQ(seq.answers, par.answers);
  EXPECT_EQ(seq.distances, par.distances);
}

TEST(ParallelBuildTest, MatchesSequentialBuild) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 17;
  gopt.mean_vertices = 14;
  gopt.max_vertices = 40;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(30);
  GraphDatabase skeletons;
  for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
  GspanOptions mine;
  mine.min_support = 3;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(skeletons, mine);
  ASSERT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);

  FragmentIndexOptions seq_opts;
  seq_opts.max_fragment_edges = 4;
  auto seq = FragmentIndex::Build(db, features, seq_opts);
  ASSERT_TRUE(seq.ok());
  FragmentIndexOptions par_opts = seq_opts;
  par_opts.num_threads = 4;
  auto par = FragmentIndex::Build(db, features, par_opts);
  ASSERT_TRUE(par.ok());

  EXPECT_EQ(seq.value().stats().num_sequences_inserted,
            par.value().stats().num_sequences_inserted);
  EXPECT_EQ(seq.value().stats().num_fragment_occurrences,
            par.value().stats().num_fragment_occurrences);

  // Identical query behaviour end to end.
  const ShardedFragmentIndex seq_index =
      ShardedFragmentIndex::FromFragmentIndex(seq.MoveValue());
  const ShardedFragmentIndex par_index =
      ShardedFragmentIndex::FromFragmentIndex(par.MoveValue());
  QuerySampler sampler(&db, {.seed = 5, .strip_vertex_labels = true});
  for (int trial = 0; trial < 4; ++trial) {
    auto query = sampler.Sample(8);
    ASSERT_TRUE(query.ok());
    PisOptions options;
    options.sigma = 2;
    PisEngine seq_engine(&db, &seq_index, options);
    PisEngine par_engine(&db, &par_index, options);
    auto a = seq_engine.Search(query.value());
    auto b = par_engine.Search(query.value());
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
  }
}

TEST(ParallelEngineTest, VerifyThreadsOptionIsSound) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(30);
  GraphDatabase skeletons;
  for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
  GspanOptions mine;
  mine.min_support = 3;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(skeletons, mine);
  ASSERT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 4;
  auto index = ShardedFragmentIndex::Build(db, features, iopt, 1);
  ASSERT_TRUE(index.ok());

  QuerySampler sampler(&db, {.seed = 7, .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  SearchResult naive = NaiveSearch(db, query.value(), iopt.spec, 2);
  PisOptions options;
  options.sigma = 2;
  options.verify_threads = 4;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().answers, naive.answers);
}

}  // namespace
}  // namespace pis
