// Crash recovery and group commit on the serving host. The durability
// contract under test: once AddGraph/RemoveGraph returns OK, the write is
// in the fsynced WAL, so "killing" the host (discarding all in-memory
// state) and restarting from disk + replay must reproduce a host that is
// differentially equal to one that never crashed — same stats, same
// answers, query for query. The group-commit suite proves concurrent
// writers coalesce (fewer snapshots than ops) while every caller still
// gets its own correct gid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "graph/generator.h"
#include "graph/io.h"
#include "server/engine_host.h"
#include "server/wal.h"
#include "util/json.h"
#include "util/mutex.h"

namespace pis {
namespace {

using testing::EngineFixture;
using testing::SampleQueries;

/// The persistent world of one test: an on-disk snapshot (index dir + db
/// file) plus a WAL directory, and OpenHost() — the same load → replay →
/// attach sequence pis_server runs at startup. "Crashing" a host is just
/// destroying it (or never checkpointing): everything in memory is lost
/// and the next OpenHost sees only what was durable.
struct DurabilityFixture {
  EngineFixture fx;
  Result<ShardedFragmentIndex> sharded = Status::Internal("unbuilt");
  GraphDatabase pool;  // graphs the tests add through the host
  std::vector<Graph> queries;
  PisOptions options;
  std::filesystem::path root;

  explicit DurabilityFixture(const std::string& tag, int db_size = 20,
                             uint64_t seed = 7, int pool_size = 12)
      : fx(db_size, seed) {
    EXPECT_TRUE(fx.index.ok());
    sharded = ShardedFragmentIndex::Build(fx.db, fx.features,
                                          fx.index.value().options(), 3);
    EXPECT_TRUE(sharded.ok());
    MoleculeGeneratorOptions gopt;
    gopt.seed = seed + 1000;
    gopt.mean_vertices = 14;
    gopt.max_vertices = 40;
    pool = MoleculeGenerator(gopt).Generate(pool_size);
    queries = SampleQueries(fx.db, 5, 7, seed + 1);
    options.sigma = 2.0;

    root = std::filesystem::path(::testing::TempDir()) /
           ("pis_durability_" + tag);
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    EXPECT_TRUE(sharded.value().SaveDir(index_dir()).ok());
    EXPECT_TRUE(WriteGraphDatabaseFile(fx.db, db_path()).ok());
  }

  ~DurabilityFixture() { std::filesystem::remove_all(root); }

  std::string index_dir() const { return (root / "index").string(); }
  std::string db_path() const { return (root / "db.txt").string(); }
  std::string wal_dir() const { return (root / "wal").string(); }
  std::string wal_log() const {
    return (std::filesystem::path(wal_dir()) / "wal.log").string();
  }

  /// Load snapshot → open WAL → replay → host + AttachWal + checkpoint
  /// config, exactly like pis_server startup.
  std::unique_ptr<EngineHost> OpenHost() {
    auto db = ReadGraphDatabaseFile(db_path());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto index = ShardedFragmentIndex::LoadDir(index_dir());
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    auto wal = WriteAheadLog::Open(wal_dir());
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    Status replayed = wal.value().Replay(&db.value(), &index.value());
    EXPECT_TRUE(replayed.ok()) << replayed.ToString();
    auto host = std::make_unique<EngineHost>(std::move(db.value()),
                                             index.MoveValue(), options);
    EXPECT_TRUE(
        host->AttachWal(std::make_unique<WriteAheadLog>(wal.MoveValue()))
            .ok());
    EngineHost::CheckpointConfig ckpt;
    ckpt.index_dir = index_dir();
    ckpt.db_path = db_path();
    EXPECT_TRUE(host->EnableCheckpoints(ckpt).ok());
    return host;
  }
};

/// Recovered-equals-survivor check: same shape stats and identical answers
/// on every fixture query plus every added pool graph (self-queries surface
/// the added gid at sigma 0 distance).
void ExpectHostsEquivalent(DurabilityFixture& f, EngineHost& survivor,
                           EngineHost& recovered) {
  EngineHost::HostStats a = survivor.Stats();
  EngineHost::HostStats b = recovered.Stats();
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.db_slots, b.db_slots);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.removed, b.removed);
  std::vector<Graph> probes = f.queries;
  for (const Graph& g : f.pool.graphs()) probes.push_back(g);
  for (size_t qi = 0; qi < probes.size(); ++qi) {
    auto want = survivor.Search(probes[qi]);
    auto got = recovered.Search(probes[qi]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want.value().answers, got.value().answers) << "probe " << qi;
    EXPECT_EQ(want.value().candidates, got.value().candidates)
        << "probe " << qi;
  }
}

TEST(DurabilityTest, ReplayRecoversEveryAckedWriteAfterCrash) {
  DurabilityFixture f("replay");
  std::unique_ptr<EngineHost> live = f.OpenHost();

  // A mixed acked schedule: 8 adds, then removes of both original and
  // freshly added graphs. Nothing is ever saved — the WAL is the only
  // persistence these mutations get.
  std::vector<int> added;
  for (int i = 0; i < 8; ++i) {
    auto gid = live->AddGraph(f.pool.at(i));
    ASSERT_TRUE(gid.ok()) << gid.status().ToString();
    EXPECT_EQ(gid.value(), f.fx.db.size() + i);
    added.push_back(gid.value());
  }
  for (int gid : {1, 3, added[0], 5, added[2]}) {
    ASSERT_TRUE(live->RemoveGraph(gid).ok());
  }
  EngineHost::HostStats before = live->Stats();
  EXPECT_EQ(before.wal_records, 13u);
  EXPECT_GT(before.wal_bytes, 8u);

  // kill -9: a second host rebuilt purely from disk must be identical.
  std::unique_ptr<EngineHost> recovered = f.OpenHost();
  EXPECT_EQ(recovered->Stats().wal_records, 13u);
  ExpectHostsEquivalent(f, *live, *recovered);

  // The added graphs that are still live answer their own exact query with
  // their assigned gid in the recovered host.
  for (size_t i = 0; i < added.size(); ++i) {
    if (i == 0 || i == 2) continue;  // removed above
    auto r = recovered->Search(f.pool.at(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(std::find(r.value().answers.begin(), r.value().answers.end(),
                          added[i]) != r.value().answers.end())
        << "acked gid " << added[i] << " lost in recovery";
  }
}

TEST(DurabilityTest, ReplayIsIdempotentOverANewerSnapshot) {
  DurabilityFixture f("idempotent");
  std::unique_ptr<EngineHost> live = f.OpenHost();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(live->AddGraph(f.pool.at(i)).ok());
  }
  ASSERT_TRUE(live->RemoveGraph(2).ok());
  // Save() persists the post-mutation snapshot WITHOUT truncating the WAL —
  // the footprint of a crash after a checkpoint's file swaps but before its
  // log truncate. Every replayed record is then already applied.
  ASSERT_TRUE(live->Save(f.index_dir(), f.db_path()).ok());
  std::unique_ptr<EngineHost> recovered = f.OpenHost();
  ExpectHostsEquivalent(f, *live, *recovered);
}

TEST(DurabilityTest, TornTailFromCrashMidAppendIsDiscarded) {
  DurabilityFixture f("torn");
  std::unique_ptr<EngineHost> live = f.OpenHost();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(live->AddGraph(f.pool.at(i)).ok());
  }
  ASSERT_TRUE(live->RemoveGraph(0).ok());
  // Crash mid-append of an op that was never acked: a partial frame at the
  // tail. Recovery must keep every acked record and drop the tail.
  {
    std::ofstream out(f.wal_log(), std::ios::binary | std::ios::app);
    out.write("\x80\x00\x00\x00\xde\xad", 6);
    ASSERT_TRUE(out.good());
  }
  std::unique_ptr<EngineHost> recovered = f.OpenHost();
  EXPECT_EQ(recovered->Stats().wal_records, 4u);
  ExpectHostsEquivalent(f, *live, *recovered);
}

TEST(DurabilityTest, CheckpointTruncatesWalAndRecoveryUsesBoth) {
  DurabilityFixture f("checkpoint");
  std::unique_ptr<EngineHost> live = f.OpenHost();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(live->AddGraph(f.pool.at(i)).ok());
  }
  ASSERT_TRUE(live->RemoveGraph(1).ok());
  ASSERT_TRUE(live->Checkpoint().ok());
  {
    EngineHost::HostStats s = live->Stats();
    EXPECT_EQ(s.checkpoints, 1u);
    EXPECT_EQ(s.wal_records, 0u) << "checkpoint left covered records behind";
  }
  // Post-checkpoint writes live only in the WAL again.
  ASSERT_TRUE(live->AddGraph(f.pool.at(3)).ok());
  ASSERT_TRUE(live->RemoveGraph(4).ok());
  EXPECT_EQ(live->Stats().wal_records, 2u);

  // Recovery = checkpointed snapshot + the 2-record log suffix.
  std::unique_ptr<EngineHost> recovered = f.OpenHost();
  ExpectHostsEquivalent(f, *live, *recovered);

  // Epochs stay monotone across the restart: the next write on the
  // recovered host must not reuse a logged epoch (TruncateThrough keys on
  // them).
  uint64_t epoch = 0;
  ASSERT_TRUE(recovered->AddGraph(f.pool.at(4), &epoch).ok());
  EXPECT_GT(epoch, live->Stats().epoch);
}

TEST(DurabilityTest, ReplayRejectsALogThatDoesNotContinueTheSnapshot) {
  DurabilityFixture f("gid_gap");
  {
    auto wal = WriteAheadLog::Open(f.wal_dir());
    ASSERT_TRUE(wal.ok());
    // A remove of a gid past the snapshot's size: the snapshot never held
    // it, so this log belongs to a different (newer) snapshot lineage —
    // applying it would fabricate state, so Replay must refuse rather than
    // guess.
    WalRecord rec;
    rec.op = WalRecord::Op::kRemove;
    rec.epoch = 1;
    rec.gid = f.fx.db.size() + 5;
    std::vector<WalRecord> batch = {rec};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  auto db = ReadGraphDatabaseFile(f.db_path());
  ASSERT_TRUE(db.ok());
  auto index = ShardedFragmentIndex::LoadDir(f.index_dir());
  ASSERT_TRUE(index.ok());
  auto wal = WriteAheadLog::Open(f.wal_dir());
  ASSERT_TRUE(wal.ok());
  Status replayed = wal.value().Replay(&db.value(), &index.value());
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.code(), StatusCode::kInvalidArgument);
}

TEST(DurabilityTest, GroupCommitCoalescesConcurrentWriters) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20;
  DurabilityFixture f("group_commit", /*db_size=*/20, /*seed=*/7,
                      /*pool_size=*/kThreads * kOpsPerThread);
  // The WAL fsync in the leader's commit path is exactly the latency window
  // that lets followers pile onto the queue — run the concurrency test with
  // durability on, like production.
  std::unique_ptr<EngineHost> host = f.OpenHost();
  const int base_slots = host->Stats().db_slots;
  const uint64_t epoch_before = host->snapshot()->epoch;

  uint64_t max_batch = 0;
  int round = 0;
  int total_ops = 0;
  std::vector<std::pair<int, const Graph*>> acked;  // gid -> submitted graph
  Mutex acked_mu;
  // Batching is timing-dependent; with 8 writers racing a leader that holds
  // writer_mu_ across an fsync, a >1 batch is near-certain, but retry a few
  // rounds before declaring failure.
  while (max_batch <= 1 && round < 5) {
    std::atomic<int> ready{0};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }  // start barrier: maximize overlap
        for (int i = 0; i < kOpsPerThread; ++i) {
          const Graph& g = f.pool.at(t * kOpsPerThread + i);
          auto gid = host->AddGraph(g);
          ASSERT_TRUE(gid.ok()) << gid.status().ToString();
          MutexLock lock(&acked_mu);
          acked.emplace_back(gid.value(), &g);
        }
      });
    }
    for (std::thread& w : writers) w.join();
    total_ops += kThreads * kOpsPerThread;
    max_batch = host->Stats().group_commit_max_batch;
    // A retry round re-adds the same pool graphs, which is fine: the db
    // admits duplicates and every add still gets a fresh unique gid.
    ++round;
  }

  EngineHost::HostStats stats = host->Stats();
  ASSERT_EQ(static_cast<int>(acked.size()), total_ops);

  // Every waiter got its own correct gid: ids are unique, dense, and the
  // published database holds each caller's exact graph at the id it was
  // handed back.
  std::vector<int> gids;
  gids.reserve(acked.size());
  for (const auto& [gid, g] : acked) gids.push_back(gid);
  std::sort(gids.begin(), gids.end());
  for (int i = 0; i < total_ops; ++i) {
    ASSERT_EQ(gids[i], base_slots + i) << "gids must be unique and dense";
  }
  std::shared_ptr<const EngineHost::Snapshot> snap = host->snapshot();
  for (const auto& [gid, g] : acked) {
    EXPECT_TRUE(snap->db->at(gid) == *g)
        << "gid " << gid << " does not hold the graph its caller submitted";
  }

  // Coalescing: N ops landed in fewer than N snapshots, and the epoch moved
  // once per batch, not once per op.
  EXPECT_EQ(stats.group_commit_ops, static_cast<uint64_t>(total_ops));
  EXPECT_LT(stats.group_commit_batches, stats.group_commit_ops);
  EXPECT_EQ(snap->epoch - epoch_before, stats.group_commit_batches);
  EXPECT_GT(max_batch, 1u) << "no batch ever coalesced across "
                           << round << " rounds";
  EXPECT_EQ(stats.wal_records, static_cast<uint64_t>(total_ops));

  // And the whole concurrent burst is still crash-safe.
  std::unique_ptr<EngineHost> recovered = f.OpenHost();
  EXPECT_EQ(recovered->Stats().db_slots, base_slots + total_ops);
  EXPECT_EQ(recovered->Stats().epoch, snap->epoch);
}

// A replica serving a shard subset sees only the cluster writes routed to
// its shards, so its log legitimately skips foreign gids. Every logged add
// carries its shard, which lets Replay bridge those gaps — missing ids
// materialize as absent slots and the logged graph lands in exactly its
// logged shard.
TEST(DurabilityTest, ShardStampedReplayBridgesForeignGidGaps) {
  DurabilityFixture f("shard_gap");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const int base = f.fx.db.size();  // snapshot holds gids 0..base-1
  {
    auto wal = WriteAheadLog::Open(f.wal_dir());
    ASSERT_TRUE(wal.ok());
    // Foreign writes consumed gids base and base+1 on other replicas;
    // this replica's shard got the next two.
    WalRecord a;
    a.op = WalRecord::Op::kAdd;
    a.epoch = 1;
    a.gid = base + 2;
    a.shard = 1;
    a.graph_text = FormatGraph(f.pool.at(0), a.gid);
    WalRecord b = a;
    b.epoch = 2;
    b.gid = base + 3;
    b.graph_text = FormatGraph(f.pool.at(1), b.gid);
    std::vector<WalRecord> batch = {a, b};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  std::unique_ptr<EngineHost> host = f.OpenHost();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EngineHost::HostStats stats = host->Stats();
  EXPECT_EQ(stats.db_slots, base + 4);  // the gap occupies real slots
  EXPECT_EQ(stats.live, base + 2);      // gap slots are absent, not live
  // Self-queries surface the replayed graphs under their logged gids.
  for (int i = 0; i < 2; ++i) {
    auto result = host->Search(f.pool.at(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<int>& answers = result.value().answers;
    EXPECT_TRUE(std::find(answers.begin(), answers.end(), base + 2 + i) !=
                answers.end())
        << "replayed gid " << base + 2 + i << " not found";
  }
}

TEST(DurabilityTest, AttachWalRequiresCleanPreconditions) {
  DurabilityFixture f("preconditions");
  std::unique_ptr<EngineHost> host = f.OpenHost();
  // Second attach must be rejected.
  auto extra = WriteAheadLog::Open((f.root / "wal2").string());
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(host->AttachWal(
                    std::make_unique<WriteAheadLog>(extra.MoveValue()))
                .code(),
            StatusCode::kAlreadyExists);
  // Checkpointing without a WAL is refused (nothing to truncate).
  EngineHost bare(f.fx.db, f.sharded.value(), f.options);
  EngineHost::CheckpointConfig ckpt;
  ckpt.index_dir = f.index_dir();
  ckpt.db_path = f.db_path();
  EXPECT_EQ(bare.EnableCheckpoints(ckpt).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bare.Checkpoint().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pis
