// The differential update harness: any seeded interleaving of AddGraph /
// RemoveGraph / Search against the incrementally maintained index over
// {1, 3, 8} shards must produce answers,
// candidates, and filter counters identical to an index rebuilt from
// scratch over the live graphs after every single step, and again after a
// persistence round trip. This is the checkable form of the incremental
// subsystem's contract: updates never change query semantics. The shared
// driver lives in engine_test_util.h (LifecycleHarness); the suites in
// compaction_test.cc extend the same schedule with compaction and
// rebalancing steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "engine_test_util.h"
#include "graph/generator.h"
#include "index/sharded_index.h"
#include "mining/gspan.h"

namespace pis {
namespace {

using ::pis::testing::LifecycleHarness;

// (num_shards, seed).
class UpdateEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UpdateEquivalenceTest, EveryStepMatchesFromScratchRebuild) {
  LifecycleHarness::Options opt;
  opt.num_shards = std::get<0>(GetParam());
  opt.seed = std::get<1>(GetParam());
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckAgainstRebuild();
  constexpr int kSteps = 10;
  for (int step = 0; step < kSteps; ++step) {
    const bool do_add =
        h.CanAdd() &&
        (h.live_count() <= 2 || h.rng().UniformInt(0, 1) == 0);
    if (do_add) {
      h.AddOne();
    } else {
      h.RemoveOne();
    }
    if (::testing::Test::HasFatalFailure()) return;
    h.CheckAgainstRebuild();
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The mutated index must survive persistence: a directory round trip
  // (manifest routing + per-shard tombstones), then the same differential
  // check.
  h.SaveLoadRoundTrip("update_eq");
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckAgainstRebuild();
}

INSTANTIATE_TEST_SUITE_P(ShardsBySeeds, UpdateEquivalenceTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(0, 1)));

// Routing sanity: adds go to the least-loaded shard, so after many adds the
// per-shard live counts stay balanced within one graph.
TEST(ShardedUpdateTest, AddsBalanceAcrossShards) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 90;
  MoleculeGenerator gen(gopt);
  GraphDatabase pool = gen.Generate(30);
  GraphDatabase slots;
  for (int i = 0; i < 9; ++i) slots.Add(pool.at(i));
  GraphDatabase skeletons;
  for (const Graph& g : slots.graphs()) skeletons.Add(g.Skeleton());
  GspanOptions mine;
  mine.min_support = 2;
  mine.max_edges = 3;
  auto patterns = MineFrequentSubgraphs(skeletons, mine);
  ASSERT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 3;
  auto sharded = ShardedFragmentIndex::Build(slots, features, iopt, 3);
  ASSERT_TRUE(sharded.ok());
  for (int i = 9; i < 30; ++i) {
    ASSERT_TRUE(sharded.value().AddGraph(pool.at(i)).ok());
  }
  int lo = sharded.value().shard(0).num_live();
  int hi = lo;
  for (int s = 1; s < 3; ++s) {
    lo = std::min(lo, sharded.value().shard(s).num_live());
    hi = std::max(hi, sharded.value().shard(s).num_live());
  }
  EXPECT_LE(hi - lo, 1);
  EXPECT_EQ(sharded.value().db_size(), 30);
}

}  // namespace
}  // namespace pis
