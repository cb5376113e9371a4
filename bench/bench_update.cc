// Incremental-update economics: amortized AddGraph/RemoveGraph cost and
// query latency before and after N interleaved updates against a sharded
// index, compared with the cost of rebuilding from scratch at the final
// state. The interesting ratio is (N * amortized add) vs (one rebuild): as
// long as it stays well below 1 the incremental path wins for live traffic.
// A second phase then removes graphs down to --live_fraction of the slots
// and compares the tombstoned index against CompactShard-ing it in place
// and against a full rebuild: on-disk bytes, compaction cost, query
// latency, and mean final candidate counts — compaction must reclaim the
// space at a fraction of the rebuild's cost without regressing candidates.
//
// --json_out writes every number of the printed table as one JSON object
// for CI and trend tooling.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pis.h"
#include "index/sharded_index.h"
#include "util/fs_util.h"
#include "util/random.h"
#include "util/timer.h"

using namespace pis;
using namespace pis::bench;

namespace {

struct QueryCost {
  double mean_seconds = 0;
  double mean_candidates = 0;
};

// Mean per-query Search latency and final candidate count over the set.
QueryCost MeasureQueries(const PisEngine& engine,
                         const std::vector<Graph>& queries) {
  QueryCost cost;
  size_t candidates = 0;
  Timer timer;
  for (const Graph& q : queries) {
    auto result = engine.Search(q);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    candidates += result.value().stats.candidates_final;
  }
  cost.mean_seconds = timer.Seconds() / static_cast<double>(queries.size());
  cost.mean_candidates =
      static_cast<double>(candidates) / static_cast<double>(queries.size());
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadConfig config;
  int query_edges = 12;
  int updates = 200;
  int shards = 4;
  double sigma = 2.0;
  double live_fraction = 0.5;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
  flags.AddInt("updates", &updates, "interleaved add/remove operations");
  flags.AddInt("shards", &shards, "shard count of the mutated index");
  flags.AddDouble("sigma", &sigma, "max superimposed distance");
  flags.AddDouble("live_fraction", &live_fraction,
                  "remove down to this live/slots ratio before measuring "
                  "compaction (phase 2)");
  flags.AddString("json_out", &json_out,
                  "write machine-readable results to this JSON file");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // The pool holds the initial database plus every graph the update phase
  // will add; features are mined over the initial snapshot only (the
  // AddGraph contract: the class catalog is fixed at build time).
  const int num_adds = (updates + 1) / 2;
  WorkloadConfig pool_config = config;
  pool_config.db_size = config.db_size + num_adds;
  GraphDatabase pool = MakeDatabase(pool_config);
  GraphDatabase db;
  for (int i = 0; i < config.db_size; ++i) db.Add(pool.at(i));
  auto features = MineFeatures(db, config);
  if (!features.ok()) {
    std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
    return 1;
  }

  FragmentIndexOptions index_options;
  index_options.min_fragment_edges = config.min_fragment_edges;
  index_options.max_fragment_edges = config.max_fragment_edges;
  index_options.spec = DistanceSpec::EdgeMutation();
  index_options.num_threads =
      config.threads <= 0 ? HardwareThreads() : config.threads;

  auto index =
      ShardedFragmentIndex::Build(db, features.value(), index_options, shards);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const double initial_build = index.value().build_seconds();

  auto sampled = SampleQueries(db, query_edges, config);
  if (!sampled.ok() || sampled.value().empty()) {
    std::fprintf(stderr, "query sampling failed\n");
    return 1;
  }
  const std::vector<Graph>& queries = sampled.value();

  PisOptions options;
  options.sigma = sigma;
  PisEngine engine(&db, &index.value(), options);
  const QueryCost cost_before = MeasureQueries(engine, queries);

  // Interleave adds (from the pool tail) and removes (random live id).
  Rng rng(config.db_seed + 1);
  std::vector<int> live_ids(db.size());
  for (int i = 0; i < db.size(); ++i) live_ids[i] = i;
  int next_pool = config.db_size;
  int adds = 0;
  int removes = 0;
  double add_seconds = 0;
  double remove_seconds = 0;
  for (int op = 0; op < updates; ++op) {
    const bool do_add = (op % 2 == 0) ? next_pool < pool.size()
                                      : live_ids.size() <= 1;
    if (do_add && next_pool < pool.size()) {
      const Graph& g = pool.at(next_pool++);
      Timer timer;
      auto gid = index.value().AddGraph(g);
      add_seconds += timer.Seconds();
      if (!gid.ok()) {
        std::fprintf(stderr, "%s\n", gid.status().ToString().c_str());
        return 1;
      }
      db.Add(g);
      live_ids.push_back(gid.value());
      ++adds;
    } else {
      const size_t slot = rng.UniformIndex(live_ids.size());
      Timer timer;
      Status removed = index.value().RemoveGraph(live_ids[slot]);
      remove_seconds += timer.Seconds();
      if (!removed.ok()) {
        std::fprintf(stderr, "%s\n", removed.ToString().c_str());
        return 1;
      }
      live_ids[slot] = live_ids.back();
      live_ids.pop_back();
      ++removes;
    }
  }
  const QueryCost cost_after = MeasureQueries(engine, queries);

  // Phase 2: drain the database down to --live_fraction of its id slots so
  // dead postings dominate, then weigh the three ways out of the debt:
  // keep serving tombstoned, CompactShard in place, or rebuild from
  // scratch.
  Rng drain_rng(config.db_seed + 2);
  while (live_ids.size() >
         static_cast<size_t>(live_fraction * index.value().db_size()) &&
         live_ids.size() > 1) {
    const size_t slot = drain_rng.UniformIndex(live_ids.size());
    Timer timer;
    Status removed = index.value().RemoveGraph(live_ids[slot]);
    remove_seconds += timer.Seconds();
    if (!removed.ok()) {
      std::fprintf(stderr, "%s\n", removed.ToString().c_str());
      return 1;
    }
    live_ids[slot] = live_ids.back();
    live_ids.pop_back();
    ++removes;
  }
  const int slots = index.value().db_size();
  const int live = index.value().num_live();

  // PID-suffixed so concurrent runs (or stale dirs from other users on a
  // shared machine) can't clobber each other's size measurements.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pis_bench_update_idx." + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  if (!index.value().SaveDir(dir).ok()) {
    std::fprintf(stderr, "SaveDir failed\n");
    return 1;
  }
  const uintmax_t bytes_tombstoned = DirectoryBytes(dir);
  const QueryCost cost_tombstoned = MeasureQueries(engine, queries);

  Timer compact_timer;
  auto compacted_shards = index.value().Compact();
  const double compact_seconds = compact_timer.Seconds();
  if (!compacted_shards.ok()) {
    std::fprintf(stderr, "%s\n", compacted_shards.status().ToString().c_str());
    return 1;
  }
  if (!index.value().SaveDir(dir).ok()) {
    std::fprintf(stderr, "SaveDir failed\n");
    return 1;
  }
  const uintmax_t bytes_compacted = DirectoryBytes(dir);
  const QueryCost cost_compacted = MeasureQueries(engine, queries);
  std::filesystem::remove_all(dir);

  // Full rebuild at the final state: densify the live graphs and build a
  // fresh sharded index — what a non-incremental system pays per batch of
  // updates.
  GraphDatabase densified;
  {
    std::vector<int> sorted = live_ids;
    std::sort(sorted.begin(), sorted.end());
    for (int gid : sorted) densified.Add(db.at(gid));
  }
  auto rebuilt = ShardedFragmentIndex::Build(densified, features.value(),
                                             index_options, shards);
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "%s\n", rebuilt.status().ToString().c_str());
    return 1;
  }
  PisEngine rebuilt_engine(&densified, &rebuilt.value(), options);
  const QueryCost cost_rebuilt = MeasureQueries(rebuilt_engine, queries);

  std::printf("bench_update: %d initial graphs, %d shards, %d queries/set\n",
              config.db_size, shards, static_cast<int>(queries.size()));
  std::printf("updates applied: %d adds, %d removes (%d live of %d slots)\n",
              adds, removes, live, slots);
  std::printf("\n%-38s %12s\n", "metric", "value");
  std::printf("%-38s %9.3f s\n", "initial sharded build", initial_build);
  std::printf("%-38s %9.3f ms\n", "amortized AddGraph",
              adds > 0 ? 1e3 * add_seconds / adds : 0.0);
  std::printf("%-38s %9.3f ms\n", "amortized RemoveGraph",
              removes > 0 ? 1e3 * remove_seconds / removes : 0.0);
  std::printf("%-38s %9.3f s (%d shards)\n", "compaction at final state",
              compact_seconds, compacted_shards.value());
  std::printf("%-38s %9.3f s\n", "full rebuild at final state",
              rebuilt.value().build_seconds());
  std::printf("%-38s %9.3f ms\n", "query latency before updates",
              1e3 * cost_before.mean_seconds);
  std::printf("%-38s %9.3f ms\n", "query latency after updates",
              1e3 * cost_after.mean_seconds);
  std::printf("%-38s %9.3f ms\n", "query latency tombstoned (drained)",
              1e3 * cost_tombstoned.mean_seconds);
  std::printf("%-38s %9.3f ms\n", "query latency after compaction",
              1e3 * cost_compacted.mean_seconds);
  std::printf("%-38s %9.3f ms\n", "query latency after rebuild",
              1e3 * cost_rebuilt.mean_seconds);
  std::printf("%-38s %9" PRIuMAX " B\n", "index bytes tombstoned",
              bytes_tombstoned);
  std::printf("%-38s %9" PRIuMAX " B\n", "index bytes compacted",
              bytes_compacted);
  std::printf("%-38s %9.1f / %9.1f / %9.1f\n",
              "mean candidates tomb/compact/rebuild",
              cost_tombstoned.mean_candidates, cost_compacted.mean_candidates,
              cost_rebuilt.mean_candidates);
  if (adds > 0 && rebuilt.value().build_seconds() > 0) {
    std::printf("%-38s %9.2fx\n", "adds per rebuild-equivalent cost",
                rebuilt.value().build_seconds() / (add_seconds / adds));
  }
  if (compact_seconds > 0) {
    std::printf("%-38s %9.2fx\n", "rebuild cost per compaction cost",
                rebuilt.value().build_seconds() / compact_seconds);
  }
  std::printf("%-38s %9.1f%%\n", "bytes reclaimed by compaction",
              bytes_tombstoned > 0
                  ? 100.0 * (1.0 - static_cast<double>(bytes_compacted) /
                                       static_cast<double>(bytes_tombstoned))
                  : 0.0);

  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "bench_update");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("shards", shards);
    cfg.Set("updates", updates);
    cfg.Set("live_fraction", live_fraction);
    cfg.Set("sigma", sigma);
    cfg.Set("query_edges", query_edges);
    cfg.Set("queries_per_set", static_cast<int>(queries.size()));
    report.Set("config", std::move(cfg));
    report.Set("adds", adds);
    report.Set("removes", removes);
    report.Set("live", live);
    report.Set("slots", slots);
    report.Set("initial_build_seconds", initial_build);
    report.Set("amortized_add_ms",
               adds > 0 ? 1e3 * add_seconds / adds : 0.0);
    report.Set("amortized_remove_ms",
               removes > 0 ? 1e3 * remove_seconds / removes : 0.0);
    report.Set("compact_seconds", compact_seconds);
    report.Set("compacted_shards", compacted_shards.value());
    report.Set("rebuild_seconds", rebuilt.value().build_seconds());
    JsonValue latency = JsonValue::Object();
    latency.Set("before_updates_ms", 1e3 * cost_before.mean_seconds);
    latency.Set("after_updates_ms", 1e3 * cost_after.mean_seconds);
    latency.Set("tombstoned_ms", 1e3 * cost_tombstoned.mean_seconds);
    latency.Set("compacted_ms", 1e3 * cost_compacted.mean_seconds);
    latency.Set("rebuilt_ms", 1e3 * cost_rebuilt.mean_seconds);
    report.Set("query_latency", std::move(latency));
    JsonValue candidates = JsonValue::Object();
    candidates.Set("tombstoned", cost_tombstoned.mean_candidates);
    candidates.Set("compacted", cost_compacted.mean_candidates);
    candidates.Set("rebuilt", cost_rebuilt.mean_candidates);
    report.Set("mean_candidates", std::move(candidates));
    report.Set("index_bytes_tombstoned",
               static_cast<uint64_t>(bytes_tombstoned));
    report.Set("index_bytes_compacted",
               static_cast<uint64_t>(bytes_compacted));
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
