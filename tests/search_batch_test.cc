// PisEngine::SearchBatch: per-query results (answers, candidates, stats, and
// errors) must be identical to a sequential Search loop for every thread
// count, with failures isolated to their own Result slot and the aggregate
// counters consistent with the per-query ones.
#include "core/pis.h"

#include <gtest/gtest.h>

#include <vector>

#include "engine_test_util.h"
#include "util/parallel.h"

namespace pis {
namespace {

using testing::EngineFixture;
using testing::ExpectSameCounters;
using testing::SampleQueries;

void ExpectBatchMatchesSequential(const PisEngine& engine,
                                  const std::vector<Graph>& queries,
                                  int num_threads) {
  BatchSearchResult batch =
      engine.SearchBatch(std::span<const Graph>(queries), num_threads);
  ASSERT_EQ(batch.results.size(), queries.size());
  size_t expect_ok = 0;
  size_t expect_failed = 0;
  QueryStats expect_total;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Result<SearchResult> sequential = engine.Search(queries[qi]);
    const Result<SearchResult>& batched = batch.results[qi];
    ASSERT_EQ(sequential.ok(), batched.ok())
        << "threads=" << num_threads << " query " << qi;
    if (!sequential.ok()) {
      // Error cases propagate verbatim.
      EXPECT_EQ(sequential.status(), batched.status()) << "query " << qi;
      ++expect_failed;
      continue;
    }
    EXPECT_EQ(sequential.value().answers, batched.value().answers)
        << "threads=" << num_threads << " query " << qi;
    EXPECT_EQ(sequential.value().candidates, batched.value().candidates)
        << "threads=" << num_threads << " query " << qi;
    ExpectSameCounters(sequential.value().stats, batched.value().stats);
    ++expect_ok;
    expect_total.Accumulate(sequential.value().stats);
  }
  EXPECT_EQ(batch.succeeded, expect_ok);
  EXPECT_EQ(batch.failed, expect_failed);
  ExpectSameCounters(batch.total_stats, expect_total);
  EXPECT_GE(batch.wall_seconds, 0);
}

TEST(SearchBatchTest, MatchesSequentialAcrossThreadCounts) {
  EngineFixture fx(40, 11);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  std::vector<Graph> queries = SampleQueries(fx.db, 12, 8, 5);
  // Duplicates stay exact: repeats of a query, and of a renumbered
  // (isomorphic) twin of it.
  const Graph original = queries[0];  // copy: push_back below reallocates
  std::vector<VertexId> perm(original.NumVertices());
  for (int v = 0; v < original.NumVertices(); ++v) {
    perm[v] = (v + 1) % original.NumVertices();
  }
  const Graph twin = original.Relabeled(perm);
  for (const Graph& q : {original, twin, original, queries[1], twin}) {
    queries.push_back(q);
  }
  for (int threads : {1, 2, HardwareThreads()}) {
    ExpectBatchMatchesSequential(engine, queries, threads);
  }
}

TEST(SearchBatchTest, SixtyFourQueryBatchOnAllHardwareThreads) {
  // ISSUE acceptance criterion: a 64-query batch with HardwareThreads()
  // threads returns results equal to the sequential loop.
  EngineFixture fx(40, 23);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  std::vector<Graph> queries = SampleQueries(fx.db, 64, 8, 9);
  ExpectBatchMatchesSequential(engine, queries, HardwareThreads());
}

TEST(SearchBatchTest, ErrorQueriesAreIsolatedPerSlot) {
  EngineFixture fx(30, 31);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  std::vector<Graph> queries = SampleQueries(fx.db, 6, 8, 17);
  // Empty graphs are rejected by Filter; plant them among valid queries.
  queries.insert(queries.begin() + 2, Graph());
  queries.push_back(Graph());
  for (int threads : {1, 2, HardwareThreads()}) {
    BatchSearchResult batch =
        engine.SearchBatch(std::span<const Graph>(queries), threads);
    ASSERT_EQ(batch.results.size(), queries.size());
    EXPECT_EQ(batch.failed, 2u);
    EXPECT_EQ(batch.succeeded, queries.size() - 2);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const bool should_fail = qi == 2 || qi == queries.size() - 1;
      EXPECT_EQ(!batch.results[qi].ok(), should_fail) << "query " << qi;
      if (should_fail) {
        EXPECT_EQ(batch.results[qi].status().code(),
                  StatusCode::kInvalidArgument);
      }
    }
    ExpectBatchMatchesSequential(engine, queries, threads);
  }
}

TEST(SearchBatchTest, EmptyBatch) {
  EngineFixture fx(20, 47);
  PisEngine engine(&fx.db, &fx.index.value(), {});
  BatchSearchResult batch = engine.SearchBatch({}, HardwareThreads());
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.succeeded, 0u);
  EXPECT_EQ(batch.failed, 0u);
  ExpectSameCounters(batch.total_stats, QueryStats{});
}

TEST(SearchBatchTest, SingleQueryBatch) {
  EngineFixture fx(20, 53);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  std::vector<Graph> queries = SampleQueries(fx.db, 1, 8, 3);
  for (int threads : {1, HardwareThreads()}) {
    ExpectBatchMatchesSequential(engine, queries, threads);
  }
}

TEST(SearchBatchTest, ZeroThreadsMeansAllHardwareThreads) {
  EngineFixture fx(20, 61);
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&fx.db, &fx.index.value(), options);
  std::vector<Graph> queries = SampleQueries(fx.db, 4, 8, 7);
  ExpectBatchMatchesSequential(engine, queries, 0);
}

}  // namespace
}  // namespace pis
