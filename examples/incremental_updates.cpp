// Incremental maintenance + persistence + nearest-neighbour search: the
// "living database" workflow. Build an index over an initial compound
// collection, persist it, append newly synthesized molecules with AddGraph
// (no rebuild), retire withdrawn compounds with RemoveGraph (tombstones),
// reclaim their postings with Compact (ids stay stable, so the database is
// untouched), and answer top-k similarity queries throughout.
//
//   ./build/examples/incremental_updates
#include <cstdio>
#include <filesystem>

#include "core/topk.h"
#include "pis.h"

using namespace pis;

int main() {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 2024;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(250);
  std::printf("initial collection: %d molecules\n", db.size());

  // Features + index over the initial snapshot.
  GspanOptions mine;
  mine.min_support = 5;
  mine.max_edges = 5;
  auto patterns = MineFrequentSubgraphs(db, mine);
  if (!patterns.ok()) {
    std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
    return 1;
  }
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 5;
  iopt.num_threads = HardwareThreads();
  auto built = ShardedFragmentIndex::Build(db, features, iopt, 1);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  ShardedFragmentIndex index = built.MoveValue();
  std::printf("index: %d classes, built with %d threads in %.2fs\n",
              index.num_classes(), iopt.num_threads, index.build_seconds());

  // Persist + reload (e.g. a daily snapshot served by another process).
  const std::string path =
      (std::filesystem::temp_directory_path() / "pis_incremental_demo")
          .string();
  if (!index.SaveDir(path).ok()) {
    std::fprintf(stderr, "persist failed\n");
    return 1;
  }
  auto reloaded = ShardedFragmentIndex::LoadDir(path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  index = reloaded.MoveValue();
  std::printf("persisted and reloaded from %s\n", path.c_str());

  // New molecules arrive; index them without a rebuild.
  for (int i = 0; i < 50; ++i) {
    Graph fresh = gen.Next();
    auto gid = index.AddGraph(fresh);
    if (!gid.ok()) {
      std::fprintf(stderr, "%s\n", gid.status().ToString().c_str());
      return 1;
    }
    db.Add(std::move(fresh));
  }
  std::printf("appended 50 molecules incrementally (db now %d)\n", db.size());

  // A few compounds get withdrawn: tombstone them. Their ids stay
  // allocated (the db keeps its records) but they vanish from every
  // subsequent query.
  for (int gid : {3, 77, 140}) {
    Status removed = index.RemoveGraph(gid);
    if (!removed.ok()) {
      std::fprintf(stderr, "%s\n", removed.ToString().c_str());
      return 1;
    }
  }
  std::printf("retired 3 molecules (%d of %d live, dead ratio %.3f)\n",
              index.num_live(), index.db_size(), index.shard_dead_ratio(0));

  // Repay the deletion debt in place: Compact drops the dead postings.
  // Graph ids never change, so the database stays aligned as it is.
  auto compacted = index.Compact();
  if (!compacted.ok()) {
    std::fprintf(stderr, "%s\n", compacted.status().ToString().c_str());
    return 1;
  }
  std::printf("compacted: %d live molecules, epoch %d, queries unchanged\n",
              index.num_live(), index.compaction_epoch());

  // Similarity query over the updated collection: 10 nearest neighbours of
  // a scaffold sampled from one of the *new* molecules.
  QuerySampler sampler(&db, {.seed = 77, .strip_vertex_labels = true});
  auto query = sampler.Sample(10);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  TopKOptions topk;
  topk.k = 10;
  auto nearest = TopKSearch(db, index, query.value(), topk);
  if (!nearest.ok()) {
    std::fprintf(stderr, "%s\n", nearest.status().ToString().c_str());
    return 1;
  }
  std::printf("top-%d neighbours (σ expanded %d rounds to %.1f):\n", topk.k,
              nearest.value().rounds, nearest.value().final_sigma);
  // Ids are stable, so the appended molecules are exactly ids >= 250.
  for (const auto& [gid, d] : nearest.value().results) {
    std::printf("  molecule #%d at mutation distance %.0f%s\n", gid, d,
                gid >= 250 ? "  (appended after the initial build)" : "");
  }
  std::filesystem::remove_all(path);
  return 0;
}
