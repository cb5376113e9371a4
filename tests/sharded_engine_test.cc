// Equivalence and persistence of sharding: for any shard count and any
// thread count, PisEngine over a sharded index must reproduce its answers,
// candidates, and partition-derived stats over a one-shard index exactly,
// and a sharded index must survive a manifest-directory save/load round
// trip.
#include "core/pis.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "index/sharded_index.h"
#include "util/random.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;
using ::pis::testing::SampleQueries;

// Everything except range_queries (the engine counts per-shard physical
// queries) and timings must match the one-shard engine. Pass 1 queries every
// fragment and pass 2 every partition fragment, once per shard each.
void ExpectEquivalent(const SearchResult& unsharded, const SearchResult& sharded,
                      int num_shards) {
  EXPECT_EQ(unsharded.answers, sharded.answers);
  EXPECT_EQ(unsharded.candidates, sharded.candidates);
  EXPECT_EQ(unsharded.stats.range_queries,
            unsharded.stats.fragments_enumerated +
                unsharded.stats.partition_size);
  QueryStats scaled = unsharded.stats;
  scaled.range_queries *= num_shards;
  pis::testing::ExpectSameCounters(scaled, sharded.stats);
}

Result<ShardedFragmentIndex> BuildSharded(const EngineFixture& fx,
                                          int num_shards, int build_threads) {
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  options.spec = DistanceSpec::EdgeMutation();
  options.num_threads = build_threads;
  return ShardedFragmentIndex::Build(fx.db, fx.features, options, num_shards);
}

// Random database, random shard count in 1..8, random build / fan-out /
// batch thread counts: the property the whole subsystem is built around.
class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedEquivalenceTest, MatchesUnshardedEngine) {
  const int seed = GetParam();
  Rng rng(900 + seed);
  const int db_size = 20 + rng.UniformInt(0, 30);
  const int num_shards = rng.UniformInt(1, 8);
  EngineFixture fx(db_size, 1000 + seed);
  ASSERT_TRUE(fx.index.ok());
  auto sharded = BuildSharded(fx, num_shards, rng.UniformInt(1, 4));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  PisOptions options;
  options.sigma = 2.0;
  PisEngine unsharded(&fx.db, &fx.index.value(), options);
  PisEngine engine(&fx.db, &sharded.value(), options);

  std::vector<Graph> queries = SampleQueries(fx.db, 6, 8, 77 + seed);
  for (const Graph& q : queries) {
    auto want = unsharded.Search(q);
    auto got = engine.Search(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectEquivalent(want.value(), got.value(), num_shards);
  }

  // The batched path must agree slot for slot with sequential Search, for
  // any thread count.
  const int batch_threads = rng.UniformInt(1, 5);
  BatchSearchResult batch = engine.SearchBatch(queries, batch_threads);
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.failed, 0u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto want = unsharded.Search(queries[qi]);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(batch.results[qi].ok());
    ExpectEquivalent(want.value(), batch.results[qi].value(), num_shards);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalenceTest, ::testing::Range(0, 10));

TEST(ShardedIndexTest, RejectsNonPositiveShardCount) {
  EngineFixture fx(20, 3);
  auto sharded = BuildSharded(fx, 0, 1);
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedIndexTest, ShardRoutingPartitionsTheDatabase) {
  EngineFixture fx(23, 5);
  auto sharded = BuildSharded(fx, 5, 2);
  ASSERT_TRUE(sharded.ok());
  const ShardedFragmentIndex& idx = sharded.value();
  EXPECT_EQ(idx.db_size(), 23);
  EXPECT_EQ(idx.num_live(), 23);
  int covered = 0;
  for (int s = 0; s < idx.num_shards(); ++s) {
    EXPECT_EQ(idx.shard(s).db_size(), idx.shard_size(s));
    covered += idx.shard_size(s);
  }
  EXPECT_EQ(covered, 23);
  // The routing and its inverse agree: every global id maps to exactly one
  // (shard, local) slot and back.
  std::vector<char> seen(idx.db_size(), 0);
  for (int s = 0; s < idx.num_shards(); ++s) {
    for (int local = 0; local < idx.shard_size(s); ++local) {
      const int gid = idx.global_id(s, local);
      ASSERT_GE(gid, 0);
      ASSERT_LT(gid, idx.db_size());
      EXPECT_FALSE(seen[gid]);
      seen[gid] = 1;
      EXPECT_EQ(idx.shard_of(gid), s);
    }
  }
}

TEST(ShardedIndexTest, MoreShardsThanGraphsStillExact) {
  EngineFixture fx(5, 9, /*max_fragment_edges=*/4,
                   DistanceSpec::EdgeMutation(), /*min_support=*/2);
  ASSERT_TRUE(fx.index.ok());
  auto sharded = BuildSharded(fx, 8, 1);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().num_shards(), 8);
  PisOptions options;
  options.sigma = 2.0;
  PisEngine unsharded(&fx.db, &fx.index.value(), options);
  PisEngine engine(&fx.db, &sharded.value(), options);
  for (const Graph& q : SampleQueries(fx.db, 3, 6, 31)) {
    auto want = unsharded.Search(q);
    auto got = engine.Search(q);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectEquivalent(want.value(), got.value(), 8);
  }
}

TEST(ShardedEngineTest, EmptyQueryIsInvalidArgument) {
  EngineFixture fx(20, 4);
  auto sharded = BuildSharded(fx, 3, 1);
  ASSERT_TRUE(sharded.ok());
  PisEngine engine(&fx.db, &sharded.value(), {});
  EXPECT_EQ(engine.Search(Graph()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedIndexIoTest, SaveLoadRoundTrip) {
  EngineFixture fx(40, 17);
  auto sharded = BuildSharded(fx, 3, 2);
  ASSERT_TRUE(sharded.ok());
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "pis_sharded_rt").string();
  ASSERT_TRUE(sharded.value().SaveDir(dir).ok());
  auto loaded = ShardedFragmentIndex::LoadDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().num_shards(), sharded.value().num_shards());
  EXPECT_EQ(loaded.value().db_size(), sharded.value().db_size());
  EXPECT_EQ(loaded.value().num_classes(), sharded.value().num_classes());
  for (int s = 0; s < sharded.value().num_shards(); ++s) {
    EXPECT_EQ(loaded.value().shard_size(s), sharded.value().shard_size(s));
    for (int local = 0; local < sharded.value().shard_size(s); ++local) {
      EXPECT_EQ(loaded.value().global_id(s, local),
                sharded.value().global_id(s, local));
    }
  }

  PisOptions options;
  options.sigma = 2.0;
  PisEngine before(&fx.db, &sharded.value(), options);
  PisEngine after(&fx.db, &loaded.value(), options);
  for (const Graph& q : SampleQueries(fx.db, 4, 8, 55)) {
    auto a = before.Search(q);
    auto b = after.Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
    pis::testing::ExpectSameCounters(a.value().stats, b.value().stats);
  }
  std::filesystem::remove_all(dir);
}

// The per-shard counters of a sharded SearchBatch must aggregate exactly to
// the one-shard engine's counts on identical inputs — counter
// drift would silently invalidate every figure the bench harness produces.
// range_queries is the one documented exception: each fragment and each
// partition fragment costs one physical query per shard.
TEST(ShardedStatsTest, BatchCountersAggregateExactly) {
  const int kShards = 4;
  EngineFixture fx(30, 21);
  ASSERT_TRUE(fx.index.ok());
  auto sharded = BuildSharded(fx, kShards, 2);
  ASSERT_TRUE(sharded.ok());
  PisOptions options;
  options.sigma = 2.0;
  PisEngine unsharded(&fx.db, &fx.index.value(), options);
  PisEngine engine(&fx.db, &sharded.value(), options);

  std::vector<Graph> queries = SampleQueries(fx.db, 8, 8, 63);
  BatchSearchResult want = unsharded.SearchBatch(queries, 3);
  BatchSearchResult got = engine.SearchBatch(queries, 3);
  ASSERT_EQ(want.failed, 0u);
  ASSERT_EQ(got.failed, 0u);

  const QueryStats& b = got.total_stats;
  QueryStats scaled = want.total_stats;
  scaled.range_queries *= kShards;
  pis::testing::ExpectSameCounters(scaled, b);

  // The batch totals are exactly the sum of the per-query stats — nothing
  // counted twice, nothing dropped by the fan-out.
  QueryStats summed;
  for (const auto& r : got.results) {
    ASSERT_TRUE(r.ok());
    summed.Accumulate(r.value().stats);
  }
  pis::testing::ExpectSameCounters(summed, b);
}

TEST(ShardedIndexIoTest, LoadRejectsMissingManifest) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "pis_sharded_empty")
          .string();
  std::filesystem::create_directories(dir);
  EXPECT_EQ(ShardedFragmentIndex::LoadDir(dir).status().code(),
            StatusCode::kIOError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pis
