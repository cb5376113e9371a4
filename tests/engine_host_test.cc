// EngineHost: snapshot-isolated serving semantics. Queries through the host
// must equal the direct sharded engine; mutations must be visible exactly
// from the snapshot they publish (and invisible to snapshots pinned
// before); the copy-on-write shard layer must keep pinned handles frozen;
// and the background compactor must reclaim dead postings without changing
// any answer.
#include "server/engine_host.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "graph/io.h"
#include "util/json.h"

namespace pis {
namespace {

using testing::EngineFixture;
using testing::SampleQueries;

/// Builds db + features + sharded index + queries once per test.
struct HostFixture {
  EngineFixture fx;
  Result<ShardedFragmentIndex> sharded = Status::Internal("unbuilt");
  std::vector<Graph> queries;
  PisOptions options;

  explicit HostFixture(int db_size, uint64_t seed, int num_shards = 3,
                       double compact_dead_ratio = 0.0)
      : fx(db_size, seed) {
    EXPECT_TRUE(fx.index.ok());
    sharded = ShardedFragmentIndex::Build(fx.db, fx.features,
                                          fx.index.value().options(),
                                          num_shards);
    EXPECT_TRUE(sharded.ok());
    queries = SampleQueries(fx.db, 6, 7, seed + 1);
    options.sigma = 2.0;
    options.compact_dead_ratio = compact_dead_ratio;
  }

  /// A fresh host over copies (the fixture keeps its own index for
  /// reference comparisons; the COW layer makes the copy cheap).
  EngineHost MakeHost() {
    return EngineHost(fx.db, sharded.value(), options);
  }
};

TEST(EngineHostTest, ServesIdenticalResultsToDirectEngine) {
  HostFixture hf(30, 77);
  EngineHost host = hf.MakeHost();
  PisEngine direct(&hf.fx.db, &hf.sharded.value(), hf.options);
  for (const Graph& q : hf.queries) {
    auto want = direct.Search(q);
    auto got = host.Search(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value().answers, got.value().answers);
    EXPECT_EQ(want.value().candidates, got.value().candidates);
  }
}

// A per-query sigma answers like an engine configured with it, the epoch
// reported is the snapshot's, and both count in the query metrics.
TEST(EngineHostTest, SearchTakesAPerQuerySigmaAndReportsItsEpoch) {
  HostFixture hf(30, 83);
  EngineHost host = hf.MakeHost();
  MetricsRegistry registry;
  host.EnableMetrics(&registry);
  ASSERT_TRUE(host.RemoveGraph(2).ok());
  PisOptions tight = hf.options;
  tight.sigma = 0.0;
  std::shared_ptr<const EngineHost::Snapshot> snap = host.snapshot();
  PisEngine direct(snap->db.get(), snap->index.get(), tight);
  for (const Graph& q : hf.queries) {
    auto want = direct.Search(q);
    uint64_t epoch = 0;
    auto got = host.Search(q, 0.0, &epoch);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value().answers, got.value().answers);
    EXPECT_EQ(want.value().candidates, got.value().candidates);
    EXPECT_EQ(epoch, 1u);
  }
  EXPECT_EQ(host.Search(hf.queries[0], -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.GetCounter("pis_queries_total", "")->value(),
            hf.queries.size());
}

TEST(EngineHostTest, MutationsAreVisibleExactlyWhenPublished) {
  HostFixture hf(24, 31);
  EngineHost host = hf.MakeHost();
  EXPECT_EQ(host.snapshot()->epoch, 0u);

  // Add a copy of an existing graph: it is its own sigma-0 answer, so the
  // exact query must surface the new id immediately after AddGraph returns.
  const Graph& probe = hf.fx.db.at(3);
  auto before = host.Search(probe);
  ASSERT_TRUE(before.ok());

  auto snap_before = host.snapshot();
  auto gid = host.AddGraph(probe);
  ASSERT_TRUE(gid.ok());
  EXPECT_EQ(gid.value(), hf.fx.db.size());
  EXPECT_EQ(host.snapshot()->epoch, 1u);

  auto after = host.Search(probe);
  ASSERT_TRUE(after.ok());
  std::vector<int> want = before.value().answers;
  want.push_back(gid.value());
  std::sort(want.begin(), want.end());
  std::vector<int> got = after.value().answers;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got);

  // Snapshot isolation: the pre-add snapshot still answers the old state.
  auto old_result = snap_before->engine.Search(probe);
  ASSERT_TRUE(old_result.ok());
  EXPECT_EQ(old_result.value().answers, before.value().answers);
  EXPECT_EQ(snap_before->epoch, 0u);

  // Remove it again: gone from new snapshots, still present in the old one
  // taken between add and remove.
  auto snap_mid = host.snapshot();
  ASSERT_TRUE(host.RemoveGraph(gid.value()).ok());
  EXPECT_EQ(host.snapshot()->epoch, 2u);
  auto final_result = host.Search(probe);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result.value().answers, before.value().answers);
  auto mid_result = snap_mid->engine.Search(probe);
  ASSERT_TRUE(mid_result.ok());
  EXPECT_EQ(mid_result.value().answers, got);
}

TEST(EngineHostTest, CowShardHandlesStayFrozenAcrossMutation) {
  HostFixture hf(18, 13);
  ShardedFragmentIndex index = std::move(hf.sharded.value());
  const int victim = 0;
  const int shard = index.shard_of(victim);
  std::shared_ptr<const FragmentIndex> handle = index.shard_handle(shard);
  const int live_before = handle->num_live();

  ASSERT_TRUE(index.RemoveGraph(victim).ok());
  // The mutation detached a copy: the pinned handle still sees the old
  // state while the index moved on.
  EXPECT_EQ(handle->num_live(), live_before);
  EXPECT_EQ(index.shard(shard).num_live(), live_before - 1);
  EXPECT_NE(handle.get(), &index.shard(shard));

  // Unpinned shards are mutated in place on the next write (no gratuitous
  // copies once the handle is dropped).
  handle.reset();
  const FragmentIndex* raw = &index.shard(shard);
  ASSERT_TRUE(index.CompactShard(shard).ok());
  EXPECT_EQ(raw, &index.shard(shard));
}

TEST(EngineHostTest, IndexCopiesShareShardsUntilMutation) {
  HostFixture hf(18, 19);
  ShardedFragmentIndex original = std::move(hf.sharded.value());
  ShardedFragmentIndex copy = original;
  for (int s = 0; s < original.num_shards(); ++s) {
    EXPECT_EQ(original.shard_handle(s).get(), copy.shard_handle(s).get());
  }
  // Mutating the copy detaches only the touched shard.
  const int victim = original.db_size() - 1;
  const int shard = original.shard_of(victim);
  ASSERT_TRUE(copy.RemoveGraph(victim).ok());
  for (int s = 0; s < original.num_shards(); ++s) {
    if (s == shard) {
      EXPECT_NE(original.shard_handle(s).get(), copy.shard_handle(s).get());
    } else {
      EXPECT_EQ(original.shard_handle(s).get(), copy.shard_handle(s).get());
    }
  }
  EXPECT_TRUE(original.IsLive(victim));
  EXPECT_FALSE(copy.IsLive(victim));
}

std::vector<std::string> GraphTexts(const GraphDatabase& db) {
  std::vector<std::string> texts;
  for (int gid = 0; gid < db.size(); ++gid) {
    texts.push_back(FormatGraph(db.at(gid), gid));
  }
  return texts;
}

std::vector<std::string> ShardBytes(const ShardedFragmentIndex& index) {
  std::vector<std::string> bytes;
  for (int s = 0; s < index.num_shards(); ++s) {
    std::ostringstream out;
    EXPECT_TRUE(index.shard(s).Save(out).ok());
    bytes.push_back(out.str());
  }
  return bytes;
}

// A pinned snapshot is immutable: adds, removes and compactions published
// after it leave its graphs and shards byte-identical.
// Writes share what they do not change: the next snapshot holds the very
// Graph objects (same addresses) of every gid the pinned one had.
TEST(EngineHostTest, PinnedSnapshotStaysByteIdenticalAcrossWrites) {
  HostFixture hf(30, 61);
  EngineHost host = hf.MakeHost();
  ASSERT_TRUE(host.AddGraph(hf.fx.db.at(1)).ok());
  ASSERT_TRUE(host.RemoveGraph(4).ok());

  const std::shared_ptr<const EngineHost::Snapshot> pinned = host.snapshot();
  const GraphDatabase& pinned_db = *pinned->db;
  const std::vector<std::string> want_graphs = GraphTexts(pinned_db);
  const std::vector<std::string> want_shards = ShardBytes(*pinned->index);
  std::vector<const Graph*> addresses;
  for (const Graph& g : pinned_db.graphs()) addresses.push_back(&g);
  std::vector<std::vector<int>> want_answers;
  for (const Graph& q : hf.queries) {
    auto r = pinned->engine.Search(q);
    ASSERT_TRUE(r.ok());
    want_answers.push_back(r.value().answers);
  }

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(host.AddGraph(hf.fx.db.at(5 + i)).ok());
  }
  const std::shared_ptr<const EngineHost::Snapshot> next = host.snapshot();
  ASSERT_EQ(next->db->size(), pinned_db.size() + 4);
  for (int gid = 0; gid < pinned_db.size(); ++gid) {
    EXPECT_EQ(&next->db->at(gid), addresses[gid]) << "gid " << gid;
  }

  // Tombstone three graphs of one shard so compaction has work to do.
  const int victim_shard = pinned->index->shard_of(0);
  int removed = 0;
  for (int gid = 0; gid < pinned_db.size() && removed < 3; ++gid) {
    if (pinned->index->shard_of(gid) != victim_shard ||
        !pinned->index->IsLive(gid)) {
      continue;
    }
    ASSERT_TRUE(host.RemoveGraph(gid).ok());
    ++removed;
  }
  ASSERT_EQ(removed, 3);
  ASSERT_TRUE(host.CompactShard(victim_shard).ok());
  ASSERT_TRUE(host.Compact().ok());

  EXPECT_EQ(GraphTexts(pinned_db), want_graphs);
  // EXPECT_TRUE: a failing comparison of whole shards would print megabytes.
  EXPECT_TRUE(ShardBytes(*pinned->index) == want_shards);
  for (int gid = 0; gid < pinned_db.size(); ++gid) {
    EXPECT_EQ(&pinned_db.at(gid), addresses[gid]);
    EXPECT_EQ(&host.snapshot()->db->at(gid), addresses[gid]) << "gid " << gid;
  }
  for (size_t qi = 0; qi < hf.queries.size(); ++qi) {
    auto r = pinned->engine.Search(hf.queries[qi]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().answers, want_answers[qi]) << "query " << qi;
  }
}

// The write-apply stage is timed per batch by pis_write_apply_seconds,
// inside the writer-observed wait pis_group_commit_wait_seconds records.
TEST(EngineHostTest, WriteApplyStageIsTimed) {
  HostFixture hf(18, 23);
  EngineHost host = hf.MakeHost();
  MetricsRegistry registry;
  host.EnableMetrics(&registry);
  ASSERT_TRUE(host.AddGraph(hf.fx.db.at(2)).ok());
  ASSERT_TRUE(host.RemoveGraph(3).ok());
  Histogram* apply = registry.GetHistogram("pis_write_apply_seconds", "");
  Histogram* wait = registry.GetHistogram("pis_group_commit_wait_seconds", "");
  EXPECT_EQ(apply->count(), 2u);
  EXPECT_EQ(wait->count(), 2u);
  EXPECT_GT(apply->sum(), 0);
  EXPECT_LE(apply->sum(), wait->sum());
  Histogram* batches = registry.GetHistogram("pis_group_commit_batch_ops", "");
  EXPECT_EQ(batches->count(), 2u);
  EXPECT_EQ(batches->sum(), 2.0);
  EXPECT_NE(registry.RenderPrometheus().find(
                "# TYPE pis_write_apply_seconds histogram"),
            std::string::npos);
}

/// A host over `hf`'s state with a fresh WAL under `root`, so tests can
/// see which writes appended a record.
std::unique_ptr<EngineHost> MakeLoggedHost(HostFixture& hf,
                                           const std::filesystem::path& root) {
  std::filesystem::remove_all(root);
  auto host = std::make_unique<EngineHost>(hf.fx.db, hf.sharded.value(),
                                           hf.options);
  auto wal = WriteAheadLog::Open((root / "wal").string());
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(
      host->AttachWal(std::make_unique<WriteAheadLog>(wal.MoveValue())).ok());
  return host;
}

// Re-delivering an applied placement (a replay after a lost ack) succeeds
// with no new epoch and no WAL record, also once the graph was removed.
TEST(EngineHostTest, RedeliveredPlacementIsANoOp) {
  HostFixture hf(18, 29);
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "redelivered_placement";
  std::unique_ptr<EngineHost> host = MakeLoggedHost(hf, root);
  const int gid = hf.fx.db.size();
  uint64_t epoch = 0;
  ASSERT_TRUE(host->AddGraphAt(gid, 1, hf.fx.db.at(4), &epoch).ok());
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(host->snapshot()->index->shard_of(gid), 1);
  const EngineHost::HostStats added = host->Stats();
  EXPECT_EQ(added.wal_records, 1u);

  EXPECT_TRUE(host->AddGraphAt(gid, 1, hf.fx.db.at(4)).ok());
  EngineHost::HostStats after = host->Stats();
  EXPECT_EQ(after.epoch, added.epoch);
  EXPECT_EQ(after.wal_records, added.wal_records);
  EXPECT_EQ(after.wal_bytes, added.wal_bytes);
  EXPECT_EQ(after.live, added.live);
  EXPECT_EQ(host->snapshot()->db->size(), gid + 1);

  ASSERT_TRUE(host->RemoveGraph(gid).ok());
  const EngineHost::HostStats removed = host->Stats();
  EXPECT_TRUE(host->AddGraphAt(gid, 1, hf.fx.db.at(4)).ok());
  EXPECT_TRUE(host->AddGraphAt(gid, 2, hf.fx.db.at(4)).ok());
  after = host->Stats();
  EXPECT_EQ(after.epoch, removed.epoch);
  EXPECT_EQ(after.wal_records, removed.wal_records);
  EXPECT_EQ(after.live, removed.live);
  host.reset();
  std::filesystem::remove_all(root);
}

// A live gid re-delivered to another shard is a placement conflict, and
// changes nothing.
TEST(EngineHostTest, LiveGidPlacedInAnotherShardIsAlreadyExists) {
  HostFixture hf(18, 37);
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "conflicting_placement";
  std::unique_ptr<EngineHost> host = MakeLoggedHost(hf, root);
  const int resident = 5;
  const int shard = host->snapshot()->index->shard_of(resident);
  const int other = (shard + 1) % host->Stats().num_shards;
  const EngineHost::HostStats before = host->Stats();
  Status conflict = host->AddGraphAt(resident, other, hf.fx.db.at(resident));
  EXPECT_EQ(conflict.code(), StatusCode::kAlreadyExists)
      << conflict.ToString();
  const int added = hf.fx.db.size();
  ASSERT_TRUE(host->AddGraphAt(added, shard, hf.fx.db.at(1)).ok());
  conflict = host->AddGraphAt(added, other, hf.fx.db.at(1));
  EXPECT_EQ(conflict.code(), StatusCode::kAlreadyExists)
      << conflict.ToString();
  const EngineHost::HostStats after = host->Stats();
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_EQ(after.wal_records, before.wal_records + 1);
  EXPECT_EQ(host->snapshot()->index->shard_of(resident), shard);
  EXPECT_EQ(host->snapshot()->index->shard_of(added), shard);
  host.reset();
  std::filesystem::remove_all(root);
}

// A gid above db_size() leaves the skipped slots absent: tombstoned and
// resident nowhere in the index, empty placeholder graphs in the database.
TEST(EngineHostTest, PlacementAboveDbSizeTombstonesTheSkippedSlots) {
  HostFixture hf(18, 41);
  EngineHost host = hf.MakeHost();
  const int first_skipped = hf.fx.db.size();
  const int gid = first_skipped + 3;
  ASSERT_TRUE(host.AddGraphAt(gid, 2, hf.fx.db.at(6)).ok());
  std::shared_ptr<const EngineHost::Snapshot> snap = host.snapshot();
  ASSERT_EQ(snap->db->size(), gid + 1);
  ASSERT_EQ(snap->index->db_size(), gid + 1);
  for (int skipped = first_skipped; skipped < gid; ++skipped) {
    EXPECT_FALSE(snap->index->IsLive(skipped)) << skipped;
    EXPECT_EQ(snap->index->tombstones().count(skipped), 1u) << skipped;
    EXPECT_EQ(snap->index->shard_of(skipped), -1) << skipped;
    EXPECT_EQ(snap->db->at(skipped).NumVertices(), 0) << skipped;
  }
  EXPECT_TRUE(snap->index->IsLive(gid));
  EXPECT_EQ(snap->index->shard_of(gid), 2);
  EXPECT_EQ(FormatGraph(snap->db->at(gid), gid),
            FormatGraph(hf.fx.db.at(6), gid));
  const EngineHost::HostStats stats = host.Stats();
  EXPECT_EQ(stats.removed, 3);
  EXPECT_EQ(stats.live, hf.fx.db.size() + 1);
  // The next implicit add takes the slot after the placement.
  auto next = host.AddGraph(hf.fx.db.at(7));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), gid + 1);
}

TEST(EngineHostTest, BackgroundCompactionReclaimsWithoutChangingAnswers) {
  HostFixture hf(30, 53, /*num_shards=*/3, /*compact_dead_ratio=*/0.2);
  EngineHost host = hf.MakeHost();
  EXPECT_EQ(host.compact_dead_ratio(), 0.2);

  // Tombstone a third of the database; with the policy at 0.2 every shard
  // crosses the threshold. RemoveGraph must NOT compact inline on the host
  // (the policy runs in the background), so dead counts pile up first.
  for (int gid = 0; gid < 10; ++gid) {
    ASSERT_TRUE(host.RemoveGraph(gid).ok());
  }
  EngineHost::HostStats dirty = host.Stats();
  EXPECT_EQ(dirty.removed, 10);
  EXPECT_EQ(dirty.compaction_epoch, 0);

  std::vector<std::vector<int>> want;
  for (const Graph& q : hf.queries) {
    auto r = host.Search(q);
    ASSERT_TRUE(r.ok());
    want.push_back(r.value().answers);
  }

  ASSERT_TRUE(
      host.StartAutoCompaction(std::chrono::milliseconds(5)).ok());
  EXPECT_TRUE(host.auto_compaction_running());
  EXPECT_FALSE(host.StartAutoCompaction(std::chrono::milliseconds(5)).ok());
  // The first pass runs immediately; give it a generous grace period.
  for (int tries = 0; host.background_compactions() == 0 && tries < 500;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  host.StopAutoCompaction();
  EXPECT_FALSE(host.auto_compaction_running());
  ASSERT_GT(host.background_compactions(), 0u);

  EngineHost::HostStats clean = host.Stats();
  EXPECT_GT(clean.compaction_epoch, 0);
  EXPECT_EQ(clean.live, dirty.live);
  EXPECT_EQ(clean.removed, 10);  // ids stay dead forever
  for (const EngineHost::ShardInfo& s : clean.shards) {
    EXPECT_EQ(s.dead, 0) << "a shard kept dead postings past compaction";
  }
  for (size_t qi = 0; qi < hf.queries.size(); ++qi) {
    auto r = host.Search(hf.queries[qi]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().answers, want[qi]) << "query " << qi;
  }
}

/// EnableMetrics hands over what the host recorded before the call: pis_server
/// and perfbench enable metrics after the maintenance thread may already
/// have compacted or checkpointed, and neither Stats() nor the registry may
/// lose those events.
TEST(EngineHostTest, EnableMetricsCarriesOverEarlierEvents) {
  HostFixture hf(30, 53, /*num_shards=*/3, /*compact_dead_ratio=*/0.2);
  EngineHost host = hf.MakeHost();
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "enable_metrics_late";
  std::filesystem::remove_all(root);
  auto wal = WriteAheadLog::Open((root / "wal").string());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(
      host.AttachWal(std::make_unique<WriteAheadLog>(wal.MoveValue())).ok());
  EngineHost::CheckpointConfig ckpt;
  ckpt.index_dir = (root / "index").string();
  ckpt.db_path = (root / "db.txt").string();
  ASSERT_TRUE(host.EnableCheckpoints(ckpt).ok());

  for (int gid = 0; gid < 10; ++gid) ASSERT_TRUE(host.RemoveGraph(gid).ok());
  ASSERT_TRUE(host.StartAutoCompaction(std::chrono::milliseconds(5)).ok());
  for (int tries = 0; host.background_compactions() == 0 && tries < 500;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  host.StopAutoCompaction();
  ASSERT_GT(host.background_compactions(), 0u);
  ASSERT_TRUE(host.Checkpoint().ok());
  const EngineHost::HostStats before = host.Stats();
  EXPECT_EQ(before.checkpoints, 1u);
  EXPECT_EQ(before.group_commit_ops, 10u);

  MetricsRegistry registry;
  host.EnableMetrics(&registry);
  const EngineHost::HostStats after = host.Stats();
  EXPECT_EQ(after.background_compactions, before.background_compactions);
  EXPECT_EQ(after.checkpoints, before.checkpoints);
  EXPECT_EQ(after.group_commit_batches, before.group_commit_batches);
  EXPECT_EQ(after.group_commit_ops, before.group_commit_ops);
  EXPECT_EQ(after.group_commit_max_batch, before.group_commit_max_batch);

  // The registry renders the carried-over counters and gauges...
  EXPECT_EQ(registry.GetCounter("pis_background_compactions_total", "")
                ->value(),
            before.background_compactions);
  EXPECT_EQ(registry.GetCounter("pis_checkpoints_total", "")->value(), 1u);
  EXPECT_EQ(registry.GetGauge("pis_group_commit_max_batch_ops", "")->value(),
            static_cast<int64_t>(before.group_commit_max_batch));
  EXPECT_EQ(registry.GetGauge("pis_snapshot_epoch", "")->value(),
            static_cast<int64_t>(before.epoch));
  EXPECT_EQ(registry.GetCounter("pis_wal_appended_records_total", "")->value(),
            10u);
  Histogram* batches = registry.GetHistogram("pis_group_commit_batch_ops", "");
  EXPECT_EQ(batches->count(), before.group_commit_batches);
  EXPECT_EQ(batches->sum(), static_cast<double>(before.group_commit_ops));
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE pis_background_compactions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("pis_checkpoints_total 1\n"), std::string::npos);

  // ...and keeps recording into the same instruments afterwards.
  ASSERT_TRUE(host.RemoveGraph(10).ok());
  EXPECT_EQ(host.Stats().group_commit_ops, before.group_commit_ops + 1);
  EXPECT_EQ(batches->count(), before.group_commit_batches + 1);
  EXPECT_EQ(registry.GetCounter("pis_wal_appended_records_total", "")->value(),
            11u);
  std::filesystem::remove_all(root);
}

TEST(EngineHostTest, StatsJsonIsMachineReadable) {
  HostFixture hf(20, 91);
  EngineHost host = hf.MakeHost();
  ASSERT_TRUE(host.RemoveGraph(1).ok());
  EngineHost::HostStats stats = host.Stats();
  auto parsed = JsonValue::Parse(stats.ToJson());
  ASSERT_TRUE(parsed.ok()) << stats.ToJson();
  EXPECT_EQ(parsed.value().GetNumberOr("live", -1), stats.live);
  EXPECT_EQ(parsed.value().GetNumberOr("removed", -1), 1);
  EXPECT_EQ(parsed.value().GetNumberOr("epoch", -1), 1);
  // Durability / group-commit counters are always present (zero without a
  // WAL — no field appearing and disappearing on dashboards).
  EXPECT_EQ(parsed.value().GetNumberOr("wal_bytes", -1), 0);
  EXPECT_EQ(parsed.value().GetNumberOr("wal_records", -1), 0);
  EXPECT_EQ(parsed.value().GetNumberOr("checkpoints", -1), 0);
  EXPECT_EQ(parsed.value().GetNumberOr("group_commit_batches", -1), 1);
  EXPECT_EQ(parsed.value().GetNumberOr("group_commit_ops", -1), 1);
  EXPECT_EQ(parsed.value().GetNumberOr("group_commit_batch_size", -1), 1);
  const JsonValue* shards = parsed.value().Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(static_cast<int>(shards->size()), stats.num_shards);
  EXPECT_GE(shards->at(0).GetNumberOr("live", -1), 0);
}

TEST(EngineHostTest, SavePersistsPolicyAndAlignedState) {
  HostFixture hf(24, 47, /*num_shards=*/3, /*compact_dead_ratio=*/0.35);
  EngineHost host = hf.MakeHost();
  ASSERT_TRUE(host.AddGraph(hf.fx.db.at(0)).ok());
  ASSERT_TRUE(host.RemoveGraph(2).ok());

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "pis_host_save").string();
  const std::string db_path =
      (std::filesystem::path(::testing::TempDir()) / "pis_host_save_db.txt")
          .string();
  ASSERT_TRUE(host.Save(dir, db_path).ok());

  auto reloaded = ShardedFragmentIndex::LoadDir(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  // The v4 manifest carries the policy even though the host zeroes it on
  // the live index (background-compactor ownership).
  EXPECT_EQ(reloaded.value().compact_dead_ratio(), 0.35);

  auto db = ReadGraphDatabaseFile(db_path);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.value().size(), reloaded.value().db_size());
  EngineHost resumed(std::move(db.value()), reloaded.MoveValue(), hf.options);
  for (const Graph& q : hf.queries) {
    auto want = host.Search(q);
    auto got = resumed.Search(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value().answers, got.value().answers);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(db_path);
}

}  // namespace
}  // namespace pis
