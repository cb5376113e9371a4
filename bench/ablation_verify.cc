// Ablation: verification strategy. PIS verifies candidates with a
// cost-bounded branch-and-bound superposition search (cost_search.h); the
// naive alternative enumerates every embedding with VF2 and scores each.
// This bench quantifies the speedup and the search-tree size difference.
#include <cstdio>

#include "bench_common.h"
#include "distance/superimposed.h"
#include "isomorphism/cost_search.h"
#include "util/timer.h"

using namespace pis;
using namespace pis::bench;

int main(int argc, char** argv) {
  WorkloadConfig config;
  config.db_size = 300;
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
  auto queries = SampleQueries(db, query_edges, config);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  MutationCostModel model = EdgeMutationModel();

  double bounded_seconds = 0;
  double unbounded_seconds = 0;
  double brute_seconds = 0;
  size_t bounded_nodes = 0;
  size_t unbounded_nodes = 0;
  size_t disagreements = 0;
  size_t pairs = 0;
  for (const Graph& query : queries.value()) {
    for (int gid = 0; gid < db.size(); gid += 7) {  // sample the database
      ++pairs;
      Timer t1;
      CostSearchResult bounded = MinCostEmbedding(query, db.at(gid), model, sigma);
      bounded_seconds += t1.Seconds();
      bounded_nodes += bounded.nodes_expanded;

      Timer t2;
      CostSearchResult unbounded =
          MinCostEmbedding(query, db.at(gid), model, kInfiniteDistance);
      unbounded_seconds += t2.Seconds();
      unbounded_nodes += unbounded.nodes_expanded;

      Timer t3;
      double brute = MinSuperimposedDistanceBruteForce(query, db.at(gid), model);
      brute_seconds += t3.Seconds();

      bool within = bounded.distance <= sigma;
      bool brute_within = brute <= sigma;
      if (within != brute_within) ++disagreements;
      if (within && bounded.distance != brute) ++disagreements;
    }
  }

  std::printf("=== Ablation: verification strategy (Q%d, sigma=%g, %zu pairs) ===\n",
              query_edges, sigma, pairs);
  std::printf("%-28s %14s %16s\n", "verifier", "total time", "nodes/embeddings");
  std::printf("%-28s %11.1f ms %16zu\n", "bounded branch-and-bound",
              bounded_seconds * 1e3, bounded_nodes);
  std::printf("%-28s %11.1f ms %16zu\n", "unbounded branch-and-bound",
              unbounded_seconds * 1e3, unbounded_nodes);
  std::printf("%-28s %11.1f ms %16s\n", "VF2 enumerate-then-score",
              brute_seconds * 1e3, "-");
  std::printf("agreement with oracle: %s (%zu disagreements)\n",
              disagreements == 0 ? "exact" : "BROKEN", disagreements);
  std::printf("speedup bounded vs enumerate: %.1fx\n",
              brute_seconds / std::max(1e-9, bounded_seconds));
  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "ablation_verify");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("sigma", sigma);
    cfg.Set("pairs", static_cast<uint64_t>(pairs));
    report.Set("config", std::move(cfg));
    report.Set("bounded_ms", bounded_seconds * 1e3);
    report.Set("bounded_nodes", static_cast<uint64_t>(bounded_nodes));
    report.Set("unbounded_ms", unbounded_seconds * 1e3);
    report.Set("unbounded_nodes", static_cast<uint64_t>(unbounded_nodes));
    report.Set("enumerate_ms", brute_seconds * 1e3);
    report.Set("speedup_bounded_vs_enumerate",
               brute_seconds / std::max(1e-9, bounded_seconds));
    report.Set("disagreements", static_cast<uint64_t>(disagreements));
    report.Set("ok", disagreements == 0);
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return disagreements == 0 ? 0 : 1;
}
