// Batched substructure search: build a small index, then answer a whole
// query workload in one SearchBatch call spread over all hardware threads.
// Demonstrates per-query error isolation (the deliberately empty query
// fails alone) and the aggregated batch statistics.
#include <cstdio>
#include <vector>

#include "pis.h"

int main() {
  using namespace pis;

  // 1. A reproducible synthetic molecule database.
  MoleculeGeneratorOptions gen_options;
  gen_options.seed = 42;
  MoleculeGenerator generator(gen_options);
  GraphDatabase db = generator.Generate(200);
  std::printf("database: %d graphs, avg %.1f vertices\n", db.size(),
              db.AverageVertices());

  // 2. Mine skeleton features and build the fragment index.
  GspanOptions mine;
  mine.min_support = 20;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, mine);
  if (!patterns.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 patterns.status().ToString().c_str());
    return 1;
  }
  FeatureSelectorOptions select;
  auto selected =
      SelectDiscriminativeFeatures(patterns.value(), db.size(), select);
  if (!selected.ok()) return 1;
  std::vector<Graph> features;
  for (size_t idx : selected.value()) {
    features.push_back(patterns.value()[idx].graph);
  }
  FragmentIndexOptions index_options;
  index_options.max_fragment_edges = 4;
  auto index = ShardedFragmentIndex::Build(db, features, index_options, 1);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  // 3. A query workload: sampled subgraphs plus one bad (empty) query.
  QuerySampler sampler(&db, {.seed = 7, .strip_vertex_labels = true});
  std::vector<Graph> queries;
  for (int i = 0; i < 15; ++i) {
    auto q = sampler.Sample(8);
    if (q.ok()) queries.push_back(q.value());
  }
  queries.push_back(Graph());  // isolated failure, not a batch abort

  // 4. One batched call over all hardware threads.
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&db, &index.value(), options);
  BatchSearchResult batch = engine.SearchBatch(queries, /*num_threads=*/0);

  for (size_t qi = 0; qi < batch.results.size(); ++qi) {
    const auto& r = batch.results[qi];
    if (!r.ok()) {
      std::printf("query %2zu: %s\n", qi, r.status().ToString().c_str());
    } else {
      std::printf("query %2zu: %3zu candidates -> %zu answers\n", qi,
                  r.value().stats.candidates_final, r.value().answers.size());
    }
  }
  std::printf("\n%zu ok, %zu failed in %.3fs on %d threads\naggregate: %s\n",
              batch.succeeded, batch.failed, batch.wall_seconds,
              HardwareThreads(), batch.total_stats.ToString().c_str());
  return batch.succeeded > 0 ? 0 : 1;
}
