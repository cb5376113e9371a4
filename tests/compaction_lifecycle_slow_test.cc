// Long-horizon randomized index-lifecycle differential suite (the
// nightly-style `ctest -L slow` gate). Same oracle as compaction_test.cc —
// after every add / remove / compact / rebalance / save-load step, the
// incremental engine must answer exactly like a from-scratch rebuild over
// the live graphs — but run over more seeds, more steps, and a larger graph
// pool, so rare interleavings (compact-after-rebalance-after-reload,
// multiple compactions of the same shard, remove-to-empty then regrow) get
// real coverage instead of a lucky dice roll.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "engine_test_util.h"

namespace pis {
namespace {

using ::pis::testing::LifecycleHarness;

class CompactionLifecycleSlowTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompactionLifecycleSlowTest, LongRandomScheduleMatchesRebuild) {
  LifecycleHarness::Options opt;
  opt.num_shards = std::get<0>(GetParam());
  opt.seed = 9000 + std::get<1>(GetParam());
  opt.initial_graphs = 14;
  opt.pool_graphs = 40;
  LifecycleHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  h.CheckAgainstRebuild();
  constexpr int kSteps = 28;
  for (int step = 0; step < kSteps; ++step) {
    const int roll = h.rng().UniformInt(0, 9);
    if ((roll < 4 || h.live_count() <= 2) && h.CanAdd()) {
      h.AddOne();
    } else if (roll < 6 && h.live_count() > 0) {
      h.RemoveOne();
    } else if (roll == 6) {
      h.CompactShard(h.rng().UniformInt(0, h.sharded().num_shards() - 1));
    } else if (roll == 7) {
      h.CompactAll();
    } else if (roll == 8) {
      h.Rebalance();
    } else {
      h.SaveLoadRoundTrip("slow_step" + std::to_string(step));
    }
    if (::testing::Test::HasFatalFailure()) return;
    h.CheckAgainstRebuild();
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.CompactAll();
  h.SaveLoadRoundTrip("slow_final");
  if (::testing::Test::HasFatalFailure()) return;
  h.CheckAgainstRebuild();
}

INSTANTIATE_TEST_SUITE_P(ShardsBySeeds, CompactionLifecycleSlowTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace pis
