// Sharded substructure search: split the database across four per-shard
// fragment indexes, answer queries with PisEngine (identical results to the
// same engine over a one-shard index), and round-trip the whole sharded
// index through a manifest directory on disk.
#include <cstdio>
#include <filesystem>
#include <vector>

#include "pis.h"

int main() {
  using namespace pis;

  // 1. A reproducible synthetic molecule database.
  MoleculeGeneratorOptions gen_options;
  gen_options.seed = 42;
  MoleculeGenerator generator(gen_options);
  GraphDatabase db = generator.Generate(200);
  std::printf("database: %d graphs\n", db.size());

  // 2. Mine skeleton features (shared by every shard).
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

  // 3. Build one index per shard (parallel across shards) and the one-shard
  // reference index.
  FragmentIndexOptions index_options;
  index_options.max_fragment_edges = 4;
  index_options.num_threads = HardwareThreads();
  auto sharded =
      ShardedFragmentIndex::Build(db, features, index_options, /*num_shards=*/4);
  if (!sharded.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  auto single =
      ShardedFragmentIndex::Build(db, features, index_options, /*num_shards=*/1);
  if (!single.ok()) return 1;
  std::printf("sharded index: %d shards, %d classes, built in %.2fs\n",
              sharded.value().num_shards(), sharded.value().num_classes(),
              sharded.value().build_seconds());
  for (int s = 0; s < sharded.value().num_shards(); ++s) {
    std::printf("  shard %d: %d graphs (globals %d..%d)\n", s,
                sharded.value().shard_size(s), sharded.value().global_id(s, 0),
                sharded.value().global_id(s, sharded.value().shard_size(s) - 1));
  }

  // 4. Search both indexes; answers must agree graph for graph.
  PisOptions options;
  options.sigma = 2.0;
  PisEngine engine(&db, &sharded.value(), options);
  PisEngine reference(&db, &single.value(), options);
  QuerySampler sampler(&db, {.seed = 7, .strip_vertex_labels = true});
  for (int i = 0; i < 5; ++i) {
    auto query = sampler.Sample(8);
    if (!query.ok()) continue;
    auto got = engine.Search(query.value());
    auto want = reference.Search(query.value());
    if (!got.ok() || !want.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   (got.ok() ? want : got).status().ToString().c_str());
      return 1;
    }
    if (got.value().answers != want.value().answers) {
      std::fprintf(stderr, "4-shard answers diverge from 1 shard!\n");
      return 1;
    }
    std::printf("query %d: %zu candidates, %zu answers (matches 1 shard)\n",
                i, got.value().stats.candidates_final,
                got.value().answers.size());
  }

  // 5. Persist the sharded index and serve from the reloaded copy.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pis_sharded_example";
  Status saved = sharded.value().SaveDir(dir.string());
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  auto loaded = ShardedFragmentIndex::LoadDir(dir.string());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  PisEngine reloaded(&db, &loaded.value(), options);
  auto query = sampler.Sample(8);
  if (query.ok()) {
    auto before = engine.Search(query.value());
    auto after = reloaded.Search(query.value());
    if (!before.ok() || !after.ok() ||
        before.value().answers != after.value().answers) {
      std::fprintf(stderr, "reloaded index diverges!\n");
      return 1;
    }
    std::printf("save/load round trip: %zu answers, identical before/after\n",
                after.value().answers.size());
  }
  std::filesystem::remove_all(dir);
  return 0;
}
