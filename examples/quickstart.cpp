// Quickstart: build a small molecule database, index it, and run one SSSD
// query end to end — the 60-second tour of the public API.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "pis.h"

using namespace pis;

int main() {
  // 1. A reproducible synthetic chemical database (or load your own with
  //    ReadGraphDatabaseFile / ReadSdfFile).
  MoleculeGenerator generator;
  GraphDatabase db = generator.Generate(300);
  std::printf("database: %d graphs, avg %.1f vertices / %.1f edges\n", db.size(),
              db.AverageVertices(), db.AverageEdges());

  // 2. Mine structure features: frequent skeletons, then keep the
  //    discriminative ones (gSpan + gIndex, as the paper prescribes).
  GspanOptions mine;
  mine.min_support = 10;
  mine.max_edges = 5;
  auto patterns = MineFrequentSubgraphs(db, mine);
  if (!patterns.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", patterns.status().ToString().c_str());
    return 1;
  }
  auto selected = SelectDiscriminativeFeatures(patterns.value(), db.size(), {});
  std::vector<Graph> features;
  for (size_t idx : selected.value()) features.push_back(patterns.value()[idx].graph);
  std::printf("features: %zu frequent skeletons, %zu selected\n",
              patterns.value().size(), features.size());

  // 3. Build the fragment-based index for the edge mutation distance (the
  //    paper's evaluation distance: count of mismatched edge labels).
  FragmentIndexOptions index_options;
  index_options.max_fragment_edges = 5;
  index_options.spec = DistanceSpec::EdgeMutation();
  auto index = ShardedFragmentIndex::Build(db, features, index_options, 1);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  std::printf("index: %d equivalence classes, %zu fragment sequences\n",
              index.value().num_classes(),
              index.value().shard(0).stats().num_sequences_inserted);

  // 4. Sample a query from the database (the paper's protocol) and search
  //    for graphs within mutation distance 2.
  QuerySampler sampler(&db);
  auto query = sampler.Sample(12);
  if (!query.ok()) {
    std::fprintf(stderr, "sampling failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  PisOptions options;
  options.sigma = 2;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query.value());
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("query: 12 edges; candidates after pruning: %zu; answers: %zu\n",
              result.value().stats.candidates_final, result.value().answers.size());
  std::printf("stats: %s\n", result.value().stats.ToString().c_str());

  // 5. Cross-check against the naive scan — same answers, no index.
  SearchResult naive = NaiveSearch(db, query.value(), index_options.spec, 2);
  std::printf("naive scan agrees: %s\n",
              naive.answers == result.value().answers ? "yes" : "NO (bug!)");
  return naive.answers == result.value().answers ? 0 : 1;
}
