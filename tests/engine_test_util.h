// Shared fixtures for the engine-level suites: the generate → mine → select
// → index pipeline and QueryStats comparison. Header-only; include from
// tests only.
#ifndef PIS_TESTS_ENGINE_TEST_UTIL_H_
#define PIS_TESTS_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pis.h"
#include "core/topo_prune.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/sharded_index.h"
#include "mining/feature_selector.h"
#include "mining/gspan.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/pis_server.h"
#include "util/random.h"

namespace pis::testing {

/// Builds the full search stack (database, features, fragment index) as a
/// pure function of its arguments — two instances with equal arguments are
/// equal, which the determinism suite relies on. The index is one
/// FragmentIndex wrapped as a one-shard index; suites that need the bare
/// FragmentIndex reach it through shard(0).
struct EngineFixture {
  GraphDatabase db;
  std::vector<Graph> features;
  Result<ShardedFragmentIndex> index = Status::Internal("unbuilt");

  explicit EngineFixture(int db_size, uint64_t seed,
                         int max_fragment_edges = 4,
                         DistanceSpec spec = DistanceSpec::EdgeMutation(),
                         int min_support = 0) {
    MoleculeGeneratorOptions gopt;
    gopt.seed = seed;
    gopt.mean_vertices = 16;
    gopt.max_vertices = 60;
    MoleculeGenerator gen(gopt);
    db = gen.Generate(db_size);

    GraphDatabase skeletons;
    for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
    GspanOptions mine;
    mine.min_support =
        min_support > 0 ? min_support : std::max(2, db_size / 10);
    mine.max_edges = max_fragment_edges;
    auto patterns = MineFrequentSubgraphs(skeletons, mine);
    EXPECT_TRUE(patterns.ok());
    FeatureSelectorOptions select;
    select.gamma = 1.2;
    auto selected =
        SelectDiscriminativeFeatures(patterns.value(), db_size, select);
    EXPECT_TRUE(selected.ok());
    for (size_t idx : selected.value()) {
      features.push_back(patterns.value()[idx].graph);
    }

    FragmentIndexOptions iopt;
    iopt.max_fragment_edges = max_fragment_edges;
    iopt.spec = spec;
    auto built = FragmentIndex::Build(db, features, iopt);
    EXPECT_TRUE(built.ok());
    if (built.ok()) {
      index = ShardedFragmentIndex::FromFragmentIndex(built.MoveValue());
    }
  }
};

/// Draws `count` connected query graphs of `num_edges` edges.
inline std::vector<Graph> SampleQueries(const GraphDatabase& db, int count,
                                        int num_edges, uint64_t seed) {
  QuerySampler sampler(&db, {.seed = seed, .strip_vertex_labels = true});
  std::vector<Graph> queries;
  for (int i = 0; i < count; ++i) {
    auto q = sampler.Sample(num_edges);
    EXPECT_TRUE(q.ok());
    queries.push_back(q.value());
  }
  return queries;
}

/// Searches every query through both indexes over the same id-aligned `db`
/// (σ = 2) and requires identical answers and candidates.
inline void ExpectSameAnswers(const GraphDatabase& db,
                              const ShardedFragmentIndex& want,
                              const ShardedFragmentIndex& got,
                              const std::vector<Graph>& queries) {
  PisOptions options;
  options.sigma = 2.0;
  PisEngine want_engine(&db, &want, options);
  PisEngine got_engine(&db, &got, options);
  for (const Graph& q : queries) {
    auto a = want_engine.Search(q);
    auto b = got_engine.Search(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
  }
}

/// Timings legitimately differ between runs; every other field must match.
inline void ExpectSameCounters(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.fragments_enumerated, b.fragments_enumerated);
  EXPECT_EQ(a.fragments_kept, b.fragments_kept);
  EXPECT_EQ(a.range_queries, b.range_queries);
  EXPECT_EQ(a.partition_size, b.partition_size);
  EXPECT_DOUBLE_EQ(a.partition_weight, b.partition_weight);
  EXPECT_EQ(a.candidates_after_intersection, b.candidates_after_intersection);
  EXPECT_EQ(a.candidates_after_partition, b.candidates_after_partition);
  EXPECT_EQ(a.candidates_final, b.candidates_final);
  EXPECT_EQ(a.answers, b.answers);
}

/// Differential index-lifecycle driver shared by the update-equivalence and
/// compaction suites. It maintains, under one randomized schedule of
/// add / remove / compact / rebalance / save-load steps, a mutable
/// ShardedFragmentIndex over the id-aligned `slots()` database (removed
/// graphs keep their slot — global ids are stable for life), and
/// CheckAgainstRebuild() asserts that its engine answers any query
/// identically — answers, candidates, and partition-derived counters — to a
/// from-scratch rebuild over only the live graphs. The one-shard
/// instantiations cover what a single unsharded index does. Every method is
/// void so ASSERT_* works inside; callers bail on HasFatalFailure() between
/// steps.
class LifecycleHarness {
 public:
  struct Options {
    int num_shards = 3;
    uint64_t seed = 0;
    int initial_graphs = 12;
    int pool_graphs = 26;
    int max_fragment_edges = 4;
    double sigma = 2.0;
    int queries_per_check = 2;
  };

  explicit LifecycleHarness(const Options& opt)
      : opt_(opt),
        rng_(700 + 13 * opt.seed + static_cast<uint64_t>(opt.num_shards)) {
    Build();  // ASSERT_* needs a void function; ctor bodies return *this
  }

 private:
  void Build() {
    MoleculeGeneratorOptions gopt;
    gopt.seed = 500 + opt_.seed;
    gopt.mean_vertices = 12;
    gopt.max_vertices = 26;
    MoleculeGenerator gen(gopt);
    pool_ = gen.Generate(opt_.pool_graphs);
    for (int i = 0; i < opt_.initial_graphs; ++i) slots_.Add(pool_.at(i));
    next_pool_ = opt_.initial_graphs;

    // Features are mined once over the initial snapshot and frozen — the
    // AddGraph/Compact contract (the class catalog is fixed at Build).
    GraphDatabase skeletons;
    for (const Graph& g : slots_.graphs()) skeletons.Add(g.Skeleton());
    GspanOptions mine;
    mine.min_support = 2;
    mine.max_edges = opt_.max_fragment_edges;
    auto patterns = MineFrequentSubgraphs(skeletons, mine);
    ASSERT_TRUE(patterns.ok());
    for (const Pattern& p : patterns.value()) features_.push_back(p.graph);
    ASSERT_FALSE(features_.empty());

    iopt_.max_fragment_edges = opt_.max_fragment_edges;
    sharded_ =
        ShardedFragmentIndex::Build(slots_, features_, iopt_, opt_.num_shards);
    ASSERT_TRUE(sharded_.ok()) << sharded_.status().ToString();

    live_.assign(opt_.initial_graphs, 1);
    live_count_ = opt_.initial_graphs;
    popt_.sigma = opt_.sigma;
    sampler_.emplace(&pool_, QuerySamplerOptions{.seed = 40u + opt_.seed,
                                                 .strip_vertex_labels = true});
  }

 public:
  bool CanAdd() const { return next_pool_ < pool_.size(); }
  int live_count() const { return live_count_; }
  int num_slots() const { return slots_.size(); }
  const GraphDatabase& slots() const { return slots_; }
  ShardedFragmentIndex& sharded() { return sharded_.value(); }
  Rng& rng() { return rng_; }

  /// Indexes the next pool graph.
  void AddOne() {
    ASSERT_TRUE(CanAdd());
    const Graph& g = pool_.at(next_pool_++);
    auto gid = sharded_.value().AddGraph(g);
    ASSERT_TRUE(gid.ok()) << gid.status().ToString();
    ASSERT_EQ(gid.value(), slots_.size());
    slots_.Add(g);
    live_.push_back(1);
    ++live_count_;
  }

  /// Removes a uniformly random live graph.
  void RemoveOne() {
    ASSERT_GT(live_count_, 0);
    int victim = rng_.UniformInt(0, live_count_ - 1);
    int gid = -1;
    for (int i = 0; i < slots_.size(); ++i) {
      if (live_[i] && victim-- == 0) {
        gid = i;
        break;
      }
    }
    RemoveGid(gid);
  }

  /// Removes a specific live global id (directed tests).
  void RemoveGid(int gid) {
    ASSERT_GE(gid, 0);
    ASSERT_LT(gid, slots_.size());
    ASSERT_TRUE(live_[gid]);
    ASSERT_TRUE(sharded_.value().RemoveGraph(gid).ok());
    live_[gid] = 0;
    --live_count_;
  }

  /// Compacts shards at/above the dead-ratio floor (0 = all dirty).
  void CompactAll(double min_dead_ratio = 0.0) {
    auto compacted = sharded_.value().Compact(min_dead_ratio);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  }

  void CompactShard(int s) {
    ASSERT_TRUE(sharded_.value().CompactShard(s).ok());
  }

  /// Rebalances the sharded index over the slot-aligned database.
  void Rebalance() {
    auto migrated = sharded_.value().Rebalance(slots_);
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    int lo = sharded_.value().shard(0).num_live();
    int hi = lo;
    for (int s = 1; s < sharded_.value().num_shards(); ++s) {
      lo = std::min(lo, sharded_.value().shard(s).num_live());
      hi = std::max(hi, sharded_.value().shard(s).num_live());
    }
    EXPECT_LE(hi - lo, 1) << "rebalance left shards unbalanced";
  }

  /// Round-trips the index through its directory manifest and swaps in
  /// the reload.
  void SaveLoadRoundTrip(const std::string& tag) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         ("pis_lifecycle_" + tag + "_" + std::to_string(opt_.num_shards) +
          "_" + std::to_string(opt_.seed)))
            .string();
    ASSERT_TRUE(sharded_.value().SaveDir(dir).ok());
    auto reloaded = ShardedFragmentIndex::LoadDir(dir);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded.value().db_size(), sharded_.value().db_size());
    EXPECT_EQ(reloaded.value().num_live(), sharded_.value().num_live());
    EXPECT_EQ(reloaded.value().compaction_epoch(),
              sharded_.value().compaction_epoch());
    sharded_ = std::move(reloaded);
  }

  /// The differential oracle: rebuilds a one-shard reference index from
  /// scratch over only the live graphs and requires the incremental engines
  /// (PIS and topoPrune) to agree with it query for query. The PIS engine
  /// issues one physical range query per shard per fragment.
  void CheckAgainstRebuild() {
    std::vector<int> live_ids;
    GraphDatabase ref_db;
    for (int gid = 0; gid < slots_.size(); ++gid) {
      if (!live_[gid]) continue;
      live_ids.push_back(gid);
      ref_db.Add(slots_.at(gid));
    }
    ASSERT_EQ(static_cast<int>(live_ids.size()), live_count_);
    ASSERT_EQ(sharded_.value().num_live(), live_count_);
    auto ref_index = ShardedFragmentIndex::Build(ref_db, features_, iopt_, 1);
    ASSERT_TRUE(ref_index.ok());
    PisEngine ref_engine(&ref_db, &ref_index.value(), popt_);
    PisEngine sharded_engine(&slots_, &sharded_.value(), popt_);
    TopoPruneEngine ref_topo(&ref_db, &ref_index.value());
    TopoPruneEngine sharded_topo(&slots_, &sharded_.value());

    for (int trial = 0; trial < opt_.queries_per_check; ++trial) {
      auto query = sampler_->Sample(5 + rng_.UniformInt(0, 3));
      ASSERT_TRUE(query.ok());
      auto want = ref_engine.Search(query.value());
      auto got_sharded = sharded_engine.Search(query.value());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got_sharded.ok()) << got_sharded.status().ToString();

      EXPECT_EQ(ToGlobal(want.value().answers, live_ids),
                got_sharded.value().answers);
      EXPECT_EQ(ToGlobal(want.value().candidates, live_ids),
                got_sharded.value().candidates);

      QueryStats scaled = want.value().stats;
      scaled.range_queries *= sharded_.value().num_shards();
      ExpectSameCounters(scaled, got_sharded.value().stats);

      auto want_topo = ref_topo.Filter(query.value(), nullptr);
      auto got_topo = sharded_topo.Filter(query.value(), nullptr);
      ASSERT_TRUE(want_topo.ok()) << want_topo.status().ToString();
      ASSERT_TRUE(got_topo.ok()) << got_topo.status().ToString();
      EXPECT_EQ(ToGlobal(want_topo.value(), live_ids), got_topo.value());
    }
  }

  /// Maps ids of one aligned space back to global ids.
  static std::vector<int> ToGlobal(const std::vector<int>& compact,
                                   const std::vector<int>& id_map) {
    std::vector<int> global;
    global.reserve(compact.size());
    for (int cid : compact) global.push_back(id_map[cid]);
    return global;
  }

 private:
  Options opt_;
  Rng rng_;
  GraphDatabase pool_;
  GraphDatabase slots_;
  std::vector<Graph> features_;
  FragmentIndexOptions iopt_;
  Result<ShardedFragmentIndex> sharded_ = Status::Internal("unbuilt");
  /// Global liveness by gid; live_count_ is its popcount.
  std::vector<char> live_;
  int live_count_ = 0;
  int next_pool_ = 0;
  PisOptions popt_;
  std::optional<QuerySampler> sampler_;
};

/// Differential cluster driver: spins `num_groups * replicas` real
/// PisServers on loopback ephemeral ports (endpoint group g owns the
/// shards {s : s % num_groups == g}; every replica of a group serves the
/// identical shard subset), connects a ClusterEngine over the sockets, and
/// checks every answer, candidate list, and shared QueryStats counter
/// against a single-process EngineHost oracle that receives the same
/// write schedule.
///
/// Each replica runs its OWN EngineHost, rebuilt from the identical
/// initial inputs — index construction is deterministic, so the replicas
/// start bit-identical and stay converged because the router replays the
/// same explicit placements everywhere. KillServer tears a replica's
/// server down mid-stream (its host keeps its state, modelling a restart
/// over durable storage); RestartServer rebinds the same port and forces
/// one synchronous health/catch-up pass, so recovery is deterministic —
/// no health-thread cadence in the loop. Every method is void so ASSERT_*
/// works inside; callers bail on HasFatalFailure() between steps.
class ClusterHarness {
 public:
  struct Options {
    int num_shards = 3;
    /// Replicas per endpoint group (every shard gets this many replicas).
    int replicas = 1;
    /// Endpoint groups the shards are striped over (clamped to
    /// num_shards); 1 = every server owns every shard.
    int num_groups = 2;
    uint64_t seed = 0;
    int initial_graphs = 12;
    int pool_graphs = 26;
    int max_fragment_edges = 4;
    double sigma = 2.0;
    int queries_per_check = 2;
    /// Where the ClusterEngine registers its fabric metrics (null: it owns
    /// one).
    MetricsRegistry* metrics = nullptr;
  };

  explicit ClusterHarness(const Options& opt)
      : opt_(opt),
        rng_(900 + 17 * opt.seed + static_cast<uint64_t>(opt.num_shards) +
             3 * static_cast<uint64_t>(opt.replicas)) {
    Build();  // ASSERT_* needs a void function; ctor bodies return *this
  }

  ~ClusterHarness() {
    cluster_.reset();  // sever client sockets before the servers stop
    for (Server& s : servers_) {
      if (s.server == nullptr) continue;
      s.server->Shutdown();
      s.server->Wait();
    }
  }

 private:
  struct Server {
    int group = 0;
    int port = 0;
    std::unique_ptr<EngineHost> host;
    std::unique_ptr<PisServer> server;
  };

  std::vector<int> OwnedShards(int group) const {
    std::vector<int> owned;
    for (int s = group; s < opt_.num_shards; s += num_groups_) {
      owned.push_back(s);
    }
    return owned;
  }

  /// Binds `s->server` on `port` (0 = ephemeral). A restart reuses the old
  /// port, which the kernel may briefly hold; retry around that window.
  void StartServer(Server* s, int port) {
    PisServerOptions sopt;
    sopt.port = port;
    sopt.shards_owned = OwnedShards(s->group);
    s->server = std::make_unique<PisServer>(s->host.get(), sopt);
    Status started = s->server->Start();
    for (int attempt = 0; !started.ok() && attempt < 100; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      s->server = std::make_unique<PisServer>(s->host.get(), sopt);
      started = s->server->Start();
    }
    ASSERT_TRUE(started.ok()) << started.ToString();
    s->port = s->server->port();
  }

  void Build() {
    num_groups_ = std::min(opt_.num_groups, opt_.num_shards);
    ASSERT_GE(num_groups_, 1);
    ASSERT_GE(opt_.replicas, 1);

    MoleculeGeneratorOptions gopt;
    gopt.seed = 500 + opt_.seed;
    gopt.mean_vertices = 12;
    gopt.max_vertices = 26;
    MoleculeGenerator gen(gopt);
    pool_ = gen.Generate(opt_.pool_graphs);
    GraphDatabase initial;
    for (int i = 0; i < opt_.initial_graphs; ++i) initial.Add(pool_.at(i));
    next_pool_ = opt_.initial_graphs;
    live_.assign(opt_.initial_graphs, 1);
    live_count_ = opt_.initial_graphs;
    slot_count_ = opt_.initial_graphs;

    // Features are mined once and shared: the frozen class catalog every
    // replica (and the oracle) enumerates against must be identical.
    GraphDatabase skeletons;
    for (const Graph& g : initial.graphs()) skeletons.Add(g.Skeleton());
    GspanOptions mine;
    mine.min_support = 2;
    mine.max_edges = opt_.max_fragment_edges;
    auto patterns = MineFrequentSubgraphs(skeletons, mine);
    ASSERT_TRUE(patterns.ok());
    for (const Pattern& p : patterns.value()) features_.push_back(p.graph);
    ASSERT_FALSE(features_.empty());

    FragmentIndexOptions iopt;
    iopt.max_fragment_edges = opt_.max_fragment_edges;
    popt_.sigma = opt_.sigma;

    auto make_host = [&]() -> std::unique_ptr<EngineHost> {
      auto index = ShardedFragmentIndex::Build(initial, features_, iopt,
                                               opt_.num_shards);
      EXPECT_TRUE(index.ok()) << index.status().ToString();
      if (!index.ok()) return nullptr;
      return std::make_unique<EngineHost>(initial, index.MoveValue(), popt_);
    };
    oracle_ = make_host();
    ASSERT_NE(oracle_, nullptr);
    for (int g = 0; g < num_groups_; ++g) {
      for (int r = 0; r < opt_.replicas; ++r) {
        Server s;
        s.group = g;
        s.host = make_host();
        ASSERT_NE(s.host, nullptr);
        servers_.push_back(std::move(s));
      }
    }
    for (Server& s : servers_) {
      StartServer(&s, /*port=*/0);
      if (::testing::Test::HasFatalFailure()) return;
    }

    ClusterManifest manifest;
    manifest.shards.resize(opt_.num_shards);
    for (int shard = 0; shard < opt_.num_shards; ++shard) {
      const int g = shard % num_groups_;
      for (int r = 0; r < opt_.replicas; ++r) {
        const Server& s = servers_[g * opt_.replicas + r];
        manifest.shards[shard].replicas.push_back("127.0.0.1:" +
                                                  std::to_string(s.port));
      }
    }
    ClusterEngineOptions copt;
    copt.timeout_ms = 10000;
    // One transport failure opens a breaker; a 1ms window keeps ProbeOnce
    // (which skips unexpired breakers) deterministic without a sleep.
    copt.breaker_threshold = 1;
    copt.breaker_open_ms = 1;
    copt.health_interval_ms = 50;  // unused: the harness drives ProbeOnce
    copt.options = popt_;
    copt.metrics = opt_.metrics;
    auto cluster = ClusterEngine::Connect(manifest, copt);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = cluster.MoveValue();
    ASSERT_EQ(cluster_->num_shards(), opt_.num_shards);

    sampler_.emplace(&pool_, QuerySamplerOptions{.seed = 40u + opt_.seed,
                                                 .strip_vertex_labels = true});
  }

 public:
  bool CanAdd() const { return next_pool_ < pool_.size(); }
  int live_count() const { return live_count_; }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  ClusterEngine& cluster() { return *cluster_; }
  EngineHost& oracle() { return *oracle_; }
  Rng& rng() { return rng_; }

  /// Index of replica r of endpoint group g.
  int ServerIndex(int group, int replica) const {
    return group * opt_.replicas + replica;
  }

  /// Stops a replica's server mid-stream: live router connections are
  /// severed and new ones refused, so the next touch is a transport error.
  void KillServer(int i) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, num_servers());
    ASSERT_NE(servers_[i].server, nullptr) << "server " << i << " already down";
    servers_[i].server->Shutdown();
    servers_[i].server->Wait();
    servers_[i].server.reset();
  }

  /// Rebinds the replica on its old port, then forces one synchronous
  /// probe pass so the breaker closes and queued catch-up ops drain before
  /// the caller's next check.
  void RestartServer(int i) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, num_servers());
    ASSERT_EQ(servers_[i].server, nullptr) << "server " << i << " still up";
    StartServer(&servers_[i], servers_[i].port);
    if (::testing::Test::HasFatalFailure()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cluster_->ProbeOnce();
  }

  /// Adds the next pool graph through the router and the oracle; the
  /// placements (and so the assigned gids) must agree.
  void AddOne() {
    ASSERT_TRUE(CanAdd());
    const Graph& g = pool_.at(next_pool_++);
    auto want = oracle_->AddGraph(g);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(want.value(), slot_count_);
    auto got = cluster_->AddGraph(g);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value(), want.value());
    ++slot_count_;
    live_.push_back(1);
    ++live_count_;
  }

  /// Removes a uniformly random live graph from both sides.
  void RemoveOne() {
    ASSERT_GT(live_count_, 0);
    int victim = rng_.UniformInt(0, live_count_ - 1);
    int gid = -1;
    for (int i = 0; i < slot_count_; ++i) {
      if (live_[i] && victim-- == 0) {
        gid = i;
        break;
      }
    }
    ASSERT_TRUE(oracle_->RemoveGraph(gid).ok());
    Status removed = cluster_->RemoveGraph(gid);
    ASSERT_TRUE(removed.ok()) << removed.ToString();
    live_[gid] = 0;
    --live_count_;
  }

  /// Compacts the oracle and every replica host (including killed ones —
  /// their durable state keeps evolving). Compaction reorganizes shard
  /// storage without moving global ids, so the router's routing table
  /// stays valid.
  void CompactAll() {
    auto compacted = oracle_->Compact(0.0);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    for (Server& s : servers_) {
      auto c = s.host->Compact(0.0);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
    }
  }

  /// The differential check: sampled queries must return identical
  /// answers, candidate lists, and shared counters through the fan-out
  /// path and the single-process oracle. range_queries is included —
  /// both sides count one physical range query per shard per fragment and
  /// per partition fragment.
  void CheckQueries() {
    for (int trial = 0; trial < opt_.queries_per_check; ++trial) {
      auto query = sampler_->Sample(5 + rng_.UniformInt(0, 3));
      ASSERT_TRUE(query.ok());
      auto want = oracle_->Search(query.value());
      auto got = cluster_->Search(query.value());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(want.value().answers, got.value().answers);
      EXPECT_EQ(want.value().candidates, got.value().candidates);
      ExpectSameCounters(want.value().stats, got.value().stats);
    }
  }

  /// SearchBatch parity: answers, candidates and shared counters, compared
  /// per query.
  void CheckBatch() {
    std::vector<Graph> queries;
    for (int i = 0; i < opt_.queries_per_check + 1; ++i) {
      auto q = sampler_->Sample(5 + rng_.UniformInt(0, 3));
      ASSERT_TRUE(q.ok());
      queries.push_back(q.value());
    }
    BatchSearchResult want = oracle_->SearchBatch(queries, 2);
    BatchSearchResult got = cluster_->SearchBatch(queries, 2);
    ASSERT_EQ(want.results.size(), queries.size());
    ASSERT_EQ(got.results.size(), queries.size());
    EXPECT_EQ(want.succeeded, got.succeeded);
    EXPECT_EQ(want.failed, got.failed);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(want.results[i].ok()) << want.results[i].status().ToString();
      ASSERT_TRUE(got.results[i].ok()) << got.results[i].status().ToString();
      EXPECT_EQ(want.results[i].value().answers, got.results[i].value().answers);
      EXPECT_EQ(want.results[i].value().candidates,
                got.results[i].value().candidates);
      ExpectSameCounters(want.results[i].value().stats,
                         got.results[i].value().stats);
    }
  }

  /// A sampled query for callers that drive the cluster directly (e.g. the
  /// trace-propagation test).
  Result<Graph> SampleQuery(int edges) { return sampler_->Sample(edges); }
  /// An initial database graph (useful as a query guaranteed to answer —
  /// its distance to itself is 0).
  const Graph& initial_graph(int i) const { return pool_.at(i); }
  double sigma() const { return opt_.sigma; }

 private:
  Options opt_;
  int num_groups_ = 1;
  Rng rng_;
  GraphDatabase pool_;
  std::vector<Graph> features_;
  PisOptions popt_;
  std::unique_ptr<EngineHost> oracle_;
  std::vector<Server> servers_;
  std::unique_ptr<ClusterEngine> cluster_;
  /// Global liveness by gid; live_count_ is its popcount.
  std::vector<char> live_;
  int live_count_ = 0;
  int slot_count_ = 0;
  int next_pool_ = 0;
  std::optional<QuerySampler> sampler_;
};

}  // namespace pis::testing

#endif  // PIS_TESTS_ENGINE_TEST_UTIL_H_
