// The compaction/rebalancing differential suite: seeded random
// interleavings of add / remove / compact-shard / compact-all / rebalance /
// save-load / search over shard counts {1, 3, 8}, asserting after EVERY
// step that the incrementally maintained engine answers exactly like an
// index rebuilt from scratch over only the live graphs.
// This is the checkable form of the compaction subsystem's contract:
// reclaiming dead postings never changes query semantics — not mid-
// sequence, not after rebalancing, and not across a persistence round trip.
//
// The long-horizon variant of the same schedule lives in
// compaction_lifecycle_slow_test.cc (label: slow).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "core/naive_search.h"
#include "core/topo_prune.h"
#include "engine_test_util.h"
#include "index/fragment_index.h"
#include "index/sharded_index.h"

namespace pis {
namespace {

using ::pis::testing::ExpectSameAnswers;
using ::pis::testing::LifecycleHarness;
using ::pis::testing::SampleQueries;

// One randomized lifecycle step; `step` seeds the save/load tag.
void RandomStep(LifecycleHarness& h, int step) {
  // Remove-heavy mix so tombstones actually accumulate between compactions.
  const int roll = h.rng().UniformInt(0, 9);
  if ((roll < 4 && h.CanAdd()) || h.live_count() <= 2) {
    if (h.CanAdd()) {
      h.AddOne();
      return;
    }
  }
  if (roll < 6 && h.live_count() > 0) {
    h.RemoveOne();
  } else if (roll == 6) {
    h.CompactShard(h.rng().UniformInt(0, h.sharded().num_shards() - 1));
  } else if (roll == 7) {
    h.CompactAll();
  } else if (roll == 8) {
    h.Rebalance();
  } else {
    h.SaveLoadRoundTrip("step" + std::to_string(step));
  }
}

// (num_shards, seed).
class CompactionLifecycleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompactionLifecycleTest, EveryStepMatchesFromScratchRebuild) {
  LifecycleHarness::Options opt;
  opt.num_shards = std::get<0>(GetParam());
  opt.seed = 100 + std::get<1>(GetParam());
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckAgainstRebuild();
  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    RandomStep(h, step);
    if (::testing::Test::HasFatalFailure()) return;
    h.CheckAgainstRebuild();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Land in a fully compacted, persisted state and re-verify once more.
  h.CompactAll();
  h.SaveLoadRoundTrip("final");
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckAgainstRebuild();
}

INSTANTIATE_TEST_SUITE_P(ShardsBySeeds, CompactionLifecycleTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(0, 1)));

// Directed (non-random) properties of the new subsystem that the
// differential schedule only hits probabilistically.

TEST(CompactionTest, CompactShardEvictsDeadSlotsAndKeepsGlobalIds) {
  LifecycleHarness::Options opt;
  opt.num_shards = 3;
  opt.seed = 7;
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  for (int i = 0; i < 4; ++i) h.RemoveOne();
  if (::testing::Test::HasFatalFailure()) return;
  const int live_before = h.sharded().num_live();
  const size_t removed = h.sharded().tombstones().size();
  ASSERT_EQ(removed, 4u);

  ASSERT_TRUE(h.sharded().Compact().ok());
  if (::testing::Test::HasFatalFailure()) return;

  // Live count and the global tombstone record survive compaction; the
  // per-shard sets drain and the dead slots lose residency.
  EXPECT_EQ(h.sharded().num_live(), live_before);
  EXPECT_EQ(h.sharded().tombstones().size(), removed);
  int resident = 0;
  for (int s = 0; s < h.sharded().num_shards(); ++s) {
    EXPECT_TRUE(h.sharded().shard(s).tombstones().empty());
    EXPECT_EQ(h.sharded().shard(s).num_live(), h.sharded().shard_size(s));
    resident += h.sharded().shard_size(s);
  }
  EXPECT_EQ(resident, h.sharded().num_live());
  for (int gid = 0; gid < h.sharded().db_size(); ++gid) {
    if (h.sharded().IsLive(gid)) {
      EXPECT_GE(h.sharded().shard_of(gid), 0);
    } else {
      // Removed AND compacted: the id lost residency everywhere but stays
      // dead forever (ids are never reused).
      EXPECT_EQ(h.sharded().shard_of(gid), -1);
    }
  }
  h.CheckAgainstRebuild();
}

// TopoPruneEngine filters every shard through ShardContainment, so after a
// compaction re-densifies local ids, and on any shard count, it answers
// exactly the live part of a naive scan.
TEST(CompactionTest, TopoPruneMatchesLiveNaiveAfterCompaction) {
  for (int num_shards : {1, 3}) {
    LifecycleHarness::Options opt;
    opt.num_shards = num_shards;
    opt.seed = 9;
    LifecycleHarness h(opt);
    if (::testing::Test::HasFatalFailure()) return;
    for (int i = 0; i < 4; ++i) h.RemoveOne();
    h.CompactAll();
    h.AddOne();
    if (::testing::Test::HasFatalFailure()) return;
    int resident = 0;
    for (int s = 0; s < h.sharded().num_shards(); ++s) {
      resident += h.sharded().shard_size(s);
    }
    EXPECT_LT(resident, h.sharded().db_size()) << "nothing was compacted";

    TopoPruneEngine topo(&h.slots(), &h.sharded());
    for (const Graph& q : SampleQueries(h.slots(), 3, 4, 61)) {
      auto got = topo.Search(q, 2.0);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<int> want;
      for (int gid :
           NaiveSearch(h.slots(), q, h.sharded().options().spec, 2.0).answers) {
        if (h.sharded().IsLive(gid)) want.push_back(gid);
      }
      EXPECT_EQ(got.value().answers, want) << num_shards << " shards";
      for (int gid : got.value().candidates) {
        EXPECT_TRUE(h.sharded().IsLive(gid)) << gid;
      }
    }
  }
}

TEST(CompactionTest, AutoCompactionPolicyTriggersOnThreshold) {
  LifecycleHarness::Options opt;
  opt.num_shards = 2;
  opt.seed = 3;
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  // Threshold 0.5: shards self-compact as soon as half their resident
  // slots are dead, so no shard can ever report a higher ratio afterwards.
  h.sharded().set_compact_dead_ratio(0.5);
  const int epoch_before = h.sharded().compaction_epoch();
  while (h.live_count() > 2) {
    h.RemoveOne();
    if (::testing::Test::HasFatalFailure()) return;
    for (int s = 0; s < h.sharded().num_shards(); ++s) {
      EXPECT_LT(h.sharded().shard_dead_ratio(s), 0.5);
    }
    h.CheckAgainstRebuild();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(h.sharded().compaction_epoch(), epoch_before);
}

TEST(CompactionTest, RebalanceAfterSkewedRemovalsLevelsShards) {
  LifecycleHarness::Options opt;
  opt.num_shards = 3;
  opt.seed = 11;
  opt.initial_graphs = 15;
  opt.pool_graphs = 20;
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  // Gut shard 0: remove every live graph it holds (ids 0..4 under the
  // contiguous initial split), skewing the live counts maximally.
  for (int gid = 0; gid < 5; ++gid) {
    ASSERT_EQ(h.sharded().shard_of(gid), 0);
    h.RemoveGid(gid);
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.Rebalance();
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckAgainstRebuild();
  if (::testing::Test::HasFatalFailure()) return;
  // And the rebalanced routing must survive persistence (manifest v3
  // persists explicit local ids precisely because migration breaks the
  // "locals ascend with globals" rule).
  h.SaveLoadRoundTrip("rebalance");
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckAgainstRebuild();
}

// The lifecycle suites above run the trie backend (mutation distance)
// only; this pins the in-place rewrite of both class backends — trie
// re-insert and R-tree re-insert — against a from-scratch rebuild over the
// survivors, including a persistence round trip of the compacted index.
TEST(CompactionTest, EveryBackendCompactsEquivalently) {
  struct Case {
    DistanceSpec spec;
    const char* name;
  };
  const Case cases[] = {
      {DistanceSpec::EdgeMutation(), "mutation/trie"},
      {DistanceSpec::EdgeLinear(), "linear/rtree"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MoleculeGeneratorOptions gopt;
    gopt.seed = 83;
    gopt.mean_vertices = 12;
    gopt.max_vertices = 24;
    MoleculeGenerator gen(gopt);
    GraphDatabase db = gen.Generate(18);
    // Path skeletons keep every backend's class set small but populated.
    std::vector<Graph> features;
    for (int k = 1; k <= 3; ++k) {
      Graph path;
      path.AddVertex(kNoLabel);
      for (int i = 0; i < k; ++i) {
        path.AddVertex(kNoLabel);
        ASSERT_TRUE(path.AddEdge(i, i + 1).ok());
      }
      features.push_back(path);
    }
    FragmentIndexOptions iopt;
    iopt.max_fragment_edges = 3;
    iopt.spec = c.spec;
    auto index = FragmentIndex::Build(db, features, iopt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();

    GraphDatabase live_db;
    for (int gid = 0; gid < db.size(); ++gid) {
      if (gid % 3 == 1) {
        ASSERT_TRUE(index.value().RemoveGraph(gid).ok());
      } else {
        live_db.Add(db.at(gid));
      }
    }
    index.value().Compact();
    ASSERT_EQ(index.value().db_size(), live_db.size());
    auto rebuilt = ShardedFragmentIndex::Build(live_db, features, iopt, 1);
    ASSERT_TRUE(rebuilt.ok());

    // The compacted index must answer like the rebuild — before and after
    // its own persistence round trip.
    std::stringstream buffer;
    ASSERT_TRUE(index.value().Save(buffer).ok());
    auto reloaded = FragmentIndex::Load(buffer);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    const std::vector<Graph> queries = SampleQueries(db, 4, 3, 51);
    ExpectSameAnswers(live_db, rebuilt.value(),
                      ShardedFragmentIndex::FromFragmentIndex(index.MoveValue()),
                      queries);
    ExpectSameAnswers(
        live_db, rebuilt.value(),
        ShardedFragmentIndex::FromFragmentIndex(reloaded.MoveValue()), queries);
  }
}

TEST(CompactionTest, RebalanceOnBalancedIndexIsANoOp) {
  LifecycleHarness::Options opt;
  opt.num_shards = 3;
  opt.seed = 5;
  opt.initial_graphs = 12;
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  auto migrated = h.sharded().Rebalance(h.slots());
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(migrated.value(), 0);
  EXPECT_EQ(h.sharded().compaction_epoch(), 0);
}

}  // namespace
}  // namespace pis
