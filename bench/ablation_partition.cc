// Ablation: partition selection strategy (paper §5). Compares the candidate
// counts and filtering time of Greedy (Algorithm 1), EnhancedGreedy(2)
// (Theorem 3), exact MWIS, and the single-best-fragment baseline.
// The paper reports EnhancedGreedy(2) ≈ Greedy on real data; this bench
// regenerates that observation and quantifies the gap to optimal.
#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"

using namespace pis;
using namespace pis::bench;

int main(int argc, char** argv) {
  WorkloadConfig config;
  config.db_size = 500;
  int query_edges = 16;
  double sigma = 2.0;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
  flags.AddDouble("sigma", &sigma, "distance threshold");
  flags.AddString("json_out", &json_out,
                  "write machine-readable results to this JSON file");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
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
  auto index = BuildIndex(db, features.value(), config);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto queries = SampleQueries(db, query_edges, config);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  struct Algo {
    const char* name;
    PartitionAlgorithm algorithm;
  };
  std::vector<Algo> algos = {
      {"greedy", PartitionAlgorithm::kGreedy},
      {"enhanced(2)", PartitionAlgorithm::kEnhancedGreedy},
      {"exact", PartitionAlgorithm::kExact},
      {"single-best", PartitionAlgorithm::kSingleBest},
  };

  std::printf("=== Ablation: partition selection (Q%d, sigma=%g, %d graphs) ===\n",
              query_edges, sigma, config.db_size);
  std::printf("%-12s %12s %14s %14s %12s\n", "algorithm", "avg |P|",
              "avg weight", "avg candidates", "filter ms");
  JsonValue algo_list = JsonValue::Array();
  for (const Algo& algo : algos) {
    PisOptions options;
    options.sigma = sigma;
    options.partition_algorithm = algo.algorithm;
    options.enhanced_k = 2;
    PisEngine engine(&db, &index.value(), options);
    double total_p = 0;
    double total_w = 0;
    double total_c = 0;
    double total_t = 0;
    for (const Graph& query : queries.value()) {
      auto filtered = engine.Filter(query);
      if (!filtered.ok()) {
        std::fprintf(stderr, "%s\n", filtered.status().ToString().c_str());
        return 1;
      }
      total_p += static_cast<double>(filtered.value().stats.partition_size);
      total_w += filtered.value().stats.partition_weight;
      total_c += static_cast<double>(
          filtered.value().stats.candidates_after_partition);
      total_t += filtered.value().stats.filter_seconds;
    }
    double n = static_cast<double>(queries.value().size());
    std::printf("%-12s %12.2f %14.3f %14.1f %12.2f\n", algo.name, total_p / n,
                total_w / n, total_c / n, total_t / n * 1e3);
    JsonValue entry = JsonValue::Object();
    entry.Set("algorithm", algo.name);
    entry.Set("avg_partition_size", total_p / n);
    entry.Set("avg_partition_weight", total_w / n);
    entry.Set("avg_candidates", total_c / n);
    entry.Set("avg_filter_ms", total_t / n * 1e3);
    algo_list.Push(std::move(entry));
  }
  std::printf(
      "\nExpected shape: greedy ≈ enhanced(2) ≈ exact candidates (paper §5);\n"
      "single-best prunes less; exact costs the most filter time on large\n"
      "overlap graphs.\n");
  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "ablation_partition");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("sigma", sigma);
    cfg.Set("queries", static_cast<uint64_t>(queries.value().size()));
    report.Set("config", std::move(cfg));
    report.Set("algorithms", std::move(algo_list));
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
