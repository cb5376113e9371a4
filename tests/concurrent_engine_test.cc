// Concurrent correctness of the serving layer (runs under TSan in CI via
// the `engine` label): reader threads hammer EngineHost::Search while the
// main thread applies an add / remove / compact / rebalance schedule.
// Every reader result must equal the oracle answers of exactly the epoch
// its snapshot was published at — not merely "some plausible answer" —
// which is the linearizability contract of the host. The oracle is a
// LifecycleHarness-driven twin index taken through the same schedule step
// by step (its equivalence to from-scratch rebuilds is pinned by the
// update-equivalence and compaction suites).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "server/engine_host.h"

namespace pis {
namespace {

using testing::LifecycleHarness;
using testing::SampleQueries;

struct Observation {
  uint64_t epoch = 0;
  size_t probe = 0;
  bool ok = false;
  std::vector<int> answers;
};

TEST(ConcurrentEngineTest, ReadersMatchTheExactSnapshotStateTheyPinned) {
  LifecycleHarness::Options opt;
  opt.num_shards = 3;
  opt.seed = 5;
  opt.initial_graphs = 12;
  opt.pool_graphs = 40;
  LifecycleHarness harness(opt);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  PisOptions popt;
  popt.sigma = 2.0;
  // The host starts from copies of the harness state; both sides then apply
  // the identical deterministic schedule, so after k steps the host's
  // epoch-k snapshot and the harness index are the same logical state.
  EngineHost host(harness.slots(), harness.sharded(), popt);
  std::vector<Graph> probes = SampleQueries(harness.slots(), 3, 6, 99);

  // expected[k][p]: oracle answers of probe p after k schedule steps.
  std::vector<std::vector<std::vector<int>>> expected;
  auto record_oracle = [&] {
    PisEngine oracle(&harness.slots(), &harness.sharded(), popt);
    std::vector<std::vector<int>> per_probe;
    for (const Graph& q : probes) {
      auto r = oracle.Search(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      per_probe.push_back(r.value().answers);
    }
    expected.push_back(std::move(per_probe));
  };
  record_oracle();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        // Pin one snapshot; its epoch names the oracle state to compare
        // against. Verification happens on the main thread after joining.
        std::shared_ptr<const EngineHost::Snapshot> snap = host.snapshot();
        Observation obs;
        obs.epoch = snap->epoch;
        obs.probe = i++ % probes.size();
        auto result = snap->engine.Search(probes[obs.probe]);
        obs.ok = result.ok();
        if (result.ok()) obs.answers = std::move(result.value().answers);
        observations[r].push_back(std::move(obs));
      }
    });
  }

  // The mutation schedule: adds, removes, compactions, and a rebalance,
  // interleaved with the readers above. One host mutator call per step —
  // the host epoch equals the step count by construction.
  std::vector<int> alive;
  for (int gid = 0; gid < opt.initial_graphs; ++gid) alive.push_back(gid);
  constexpr int kSteps = 16;
  for (int step = 0; step < kSteps; ++step) {
    switch (step % 8) {
      case 0:
      case 2:
      case 5: {  // add
        harness.AddOne();
        if (::testing::Test::HasFatalFailure()) break;
        const int gid = harness.num_slots() - 1;
        auto added = host.AddGraph(harness.slots().at(gid));
        ASSERT_TRUE(added.ok()) << added.status().ToString();
        ASSERT_EQ(added.value(), gid);
        alive.push_back(gid);
        break;
      }
      case 1:
      case 3:
      case 6: {  // remove
        ASSERT_FALSE(alive.empty());
        const size_t victim = (static_cast<size_t>(step) * 7) % alive.size();
        const int gid = alive[victim];
        harness.RemoveGid(gid);
        if (::testing::Test::HasFatalFailure()) break;
        ASSERT_TRUE(host.RemoveGraph(gid).ok());
        alive.erase(alive.begin() + static_cast<long>(victim));
        break;
      }
      case 4: {  // compact every dirty shard
        harness.CompactAll(0.0);
        if (::testing::Test::HasFatalFailure()) break;
        auto compacted = host.Compact(0.0);
        ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
        break;
      }
      case 7: {  // rebalance
        auto migrated_harness = harness.sharded().Rebalance(harness.slots());
        ASSERT_TRUE(migrated_harness.ok());
        auto migrated = host.Rebalance();
        ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
        EXPECT_EQ(migrated.value(), migrated_harness.value());
        break;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    record_oracle();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // Let the readers sample this epoch before the next mutation lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(host.snapshot()->epoch, static_cast<uint64_t>(kSteps));

  size_t total = 0;
  for (const std::vector<Observation>& per_reader : observations) {
    for (const Observation& obs : per_reader) {
      ASSERT_TRUE(obs.ok) << "a concurrent Search failed";
      ASSERT_LE(obs.epoch, static_cast<uint64_t>(kSteps));
      EXPECT_EQ(obs.answers, expected[obs.epoch][obs.probe])
          << "epoch " << obs.epoch << " probe " << obs.probe
          << ": answer does not match the state the snapshot was "
             "published at";
      ++total;
    }
  }
  // Sanity: the readers actually ran against the mutation schedule.
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace pis
