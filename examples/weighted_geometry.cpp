// Geometric (linear-distance) search — the paper's R-tree scenario (§4,
// Example 3): edges carry numeric weights (bond lengths) and the query asks
// for substructures whose summed |Δweight| stays under σ.
//
//   ./build/examples/weighted_geometry [--db_size N] [--sigma S]
#include <cstdio>

#include "pis.h"
#include "util/flags.h"

using namespace pis;

int main(int argc, char** argv) {
  int db_size = 300;
  double sigma = 0.2;
  FlagSet flags;
  flags.AddInt("db_size", &db_size, "database size");
  flags.AddDouble("sigma", &sigma, "max total bond-length deviation");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // Molecules with pseudo bond lengths on every edge.
  MoleculeGeneratorOptions gopt;
  gopt.assign_weights = true;
  MoleculeGenerator generator(gopt);
  GraphDatabase db = generator.Generate(db_size);
  std::printf("database: %d weighted molecules\n", db.size());

  // Index for the linear mutation distance; classes store weight vectors in
  // R-trees instead of label tries.
  FragmentIndexOptions index_options;
  index_options.spec = DistanceSpec::EdgeLinear();
  index_options.max_fragment_edges = 4;
  GraphDatabase skeletons;
  for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
  GspanOptions mine;
  mine.min_support = std::max(2, db.size() / 50);
  mine.max_edges = index_options.max_fragment_edges;
  auto patterns = MineFrequentSubgraphs(skeletons, mine);
  if (!patterns.ok()) {
    std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
    return 1;
  }
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  auto index = ShardedFragmentIndex::Build(db, features, index_options, 1);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("index: %d classes (R-tree backend)\n", index.value().num_classes());

  // Query: a geometry sampled from the database, perturbed slightly — the
  // "find conformations close to this one" use case.
  QuerySampler sampler(&db, {.seed = 4, .strip_vertex_labels = true});
  auto query = sampler.Sample(8);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  Graph perturbed = query.MoveValue();
  Rng rng(99);
  for (EdgeId e = 0; e < perturbed.NumEdges(); ++e) {
    perturbed.SetEdgeWeight(
        e, perturbed.GetEdge(e).weight + rng.UniformDouble(-0.01, 0.01));
  }

  PisOptions options;
  options.sigma = sigma;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(perturbed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "8-bond geometric query, sigma=%.2f A total deviation:\n"
      "  pruned %d -> %zu candidates, %zu matches\n",
      sigma, db.size(), result.value().stats.candidates_final,
      result.value().answers.size());

  // Verify against the naive scan.
  SearchResult naive = NaiveSearch(db, perturbed, index_options.spec, sigma);
  std::printf("naive scan agrees: %s\n",
              naive.answers == result.value().answers ? "yes" : "NO (bug!)");
  return naive.answers == result.value().answers ? 0 : 1;
}
