// Index-sharding scaling: build time and batch-query throughput of
// PisEngine over a ShardedFragmentIndex as the shard count grows, against
// the one-shard index as the baseline. Answers are cross-checked against
// the baseline at every shard count — sharding is exact by construction,
// and this bench enforces it on the benchmark workload too.
//
// --json_out writes every number of the printed table as one JSON object
// (shared bench::WriteJsonFile schema: a "config" block, the one-shard
// "baseline", and per-shard-count sweep entries).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace pis;
using namespace pis::bench;

int main(int argc, char** argv) {
  WorkloadConfig config;
  int query_edges = 12;
  int batch_size = 32;
  double sigma = 2.0;
  int max_shards = 8;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
  flags.AddInt("batch_size", &batch_size, "queries per batch");
  flags.AddDouble("sigma", &sigma, "max superimposed distance");
  flags.AddInt("max_shards", &max_shards, "largest shard count in the sweep");
  flags.AddString("json_out", &json_out,
                  "write machine-readable results to this JSON file");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  GraphDatabase db = MakeDatabase(config);
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

  auto sampled = SampleQueries(db, query_edges, config);
  if (!sampled.ok() || sampled.value().empty()) {
    std::fprintf(stderr, "query sampling failed\n");
    return 1;
  }
  std::vector<Graph> batch;
  batch.reserve(batch_size);
  for (int i = 0; i < batch_size; ++i) {
    batch.push_back(sampled.value()[i % sampled.value().size()]);
  }

  PisOptions options;
  options.sigma = sigma;
  options.max_query_fragments = config.max_query_fragments;

  std::printf("db=%d graphs, batch=%d queries (Q%d, sigma=%.1f)\n", db.size(),
              batch_size, query_edges, sigma);
  std::printf("%-12s %10s %9s %10s %9s %9s\n", "index", "build_s", "build_x",
              "batch_s", "queries/s", "answers");

  // The sweep starts at one shard: that run is the baseline every other
  // shard count is timed and cross-checked against.
  std::vector<int> sweep;
  for (int s = 1; s <= max_shards; s *= 2) sweep.push_back(s);
  // The doubling sweep skips a non-power-of-two endpoint; always include it.
  if (sweep.empty() || sweep.back() != max_shards) sweep.push_back(max_shards);
  JsonValue sweep_json = JsonValue::Array();
  double baseline_build = 0;
  BatchSearchResult baseline_batch;
  for (int shards : sweep) {
    auto sharded =
        ShardedFragmentIndex::Build(db, features.value(), index_options, shards);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    PisEngine engine(&db, &sharded.value(), options);
    BatchSearchResult result = engine.SearchBatch(batch, 0);
    if (result.failed != 0) {
      std::fprintf(stderr, "%zu queries failed at S=%d\n", result.failed,
                   shards);
      return 1;
    }
    if (shards == 1) {
      baseline_build = sharded.value().build_seconds();
      baseline_batch = result;
    }
    // Exactness check: every shard count must reproduce the baseline
    // answers query by query.
    for (size_t qi = 0; qi < batch.size(); ++qi) {
      if (result.results[qi].value().answers !=
          baseline_batch.results[qi].value().answers) {
        std::fprintf(stderr, "answer mismatch at S=%d query %zu\n", shards, qi);
        return 1;
      }
    }
    char label[32];
    std::snprintf(label, sizeof(label), "S=%d", shards);
    std::printf("%-12s %10.3f %8.2fx %10.3f %9.1f %9zu\n", label,
                sharded.value().build_seconds(),
                baseline_build / sharded.value().build_seconds(),
                result.wall_seconds, batch_size / result.wall_seconds,
                result.total_stats.answers);
    JsonValue entry = JsonValue::Object();
    entry.Set("shards", shards);
    entry.Set("build_seconds", sharded.value().build_seconds());
    entry.Set("build_speedup",
              baseline_build / sharded.value().build_seconds());
    entry.Set("batch_seconds", result.wall_seconds);
    entry.Set("queries_per_second", batch_size / result.wall_seconds);
    entry.Set("answers", static_cast<uint64_t>(result.total_stats.answers));
    sweep_json.Push(std::move(entry));
  }

  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "bench_shard");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("batch_size", batch_size);
    cfg.Set("sigma", sigma);
    cfg.Set("max_shards", max_shards);
    report.Set("config", std::move(cfg));
    JsonValue base = JsonValue::Object();
    base.Set("build_seconds", baseline_build);
    base.Set("batch_seconds", baseline_batch.wall_seconds);
    base.Set("queries_per_second", batch_size / baseline_batch.wall_seconds);
    base.Set("answers",
             static_cast<uint64_t>(baseline_batch.total_stats.answers));
    report.Set("baseline", std::move(base));
    report.Set("sweep", std::move(sweep_json));
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
