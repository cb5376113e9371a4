// Chemical substructure search with mutation tolerance — the paper's
// Example 1 scenario: find compounds containing a query scaffold with at
// most σ mutated bond types, e.g. tolerating single↔aromatic substitutions
// more cheaply than single↔triple.
//
//   ./build/examples/chemical_search [--db_size N] [--sigma S] [--sdf FILE]
//
// With --sdf the real NCI AIDS screen file (or any SDF) is used instead of
// the synthetic database.
#include <cstdio>

#include "pis.h"
#include "util/flags.h"

using namespace pis;

namespace {

// The query scaffold of the paper's Figure 2: an indene-like skeleton — a
// benzene ring fused with a five-ring. Bond labels: aromatic ring +
// single-bond five-ring.
Graph IndeneScaffold(const ChemicalVocabulary& vocab) {
  Label c = vocab.atoms.Find("C").ValueOr(1);
  Label aromatic = vocab.bonds.Find("aromatic").ValueOr(4);
  Label single = vocab.bonds.Find("single").ValueOr(1);
  Graph g;
  for (int i = 0; i < 9; ++i) g.AddVertex(c);
  // Six-ring 0-1-2-3-4-5, aromatic.
  for (int i = 0; i < 5; ++i) (void)g.AddEdge(i, i + 1, aromatic);
  (void)g.AddEdge(5, 0, aromatic);
  // Five-ring fused on edge (0,5): 0-6-7-8-5.
  (void)g.AddEdge(0, 6, single);
  (void)g.AddEdge(6, 7, single);
  (void)g.AddEdge(7, 8, single);
  (void)g.AddEdge(8, 5, single);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  int db_size = 400;
  double sigma = 2;
  std::string sdf_path;
  FlagSet flags;
  flags.AddInt("db_size", &db_size, "synthetic database size");
  flags.AddDouble("sigma", &sigma, "max mutation distance");
  flags.AddString("sdf", &sdf_path, "optional SDF file to search instead");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // Load or generate the compound database.
  MoleculeGenerator generator;
  ChemicalVocabulary vocab = generator.vocabulary();
  GraphDatabase db;
  if (!sdf_path.empty()) {
    auto loaded = ReadSdfFile(sdf_path, &vocab, {.require_connected = true});
    if (!loaded.ok()) {
      std::fprintf(stderr, "SDF load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = loaded.MoveValue();
  } else {
    db = generator.Generate(db_size);
  }
  std::printf("compound database: %d molecules\n", db.size());

  // A chemistry-aware mutation matrix: aromatic<->single and
  // aromatic<->double are mild perturbations (0.5); anything involving a
  // triple bond is a strong one (2.0).
  ScoreMatrix bond_scores = ScoreMatrix::Unit();
  Label single = vocab.bonds.Find("single").ValueOr(1);
  Label dbl = vocab.bonds.Find("double").ValueOr(2);
  Label triple = vocab.bonds.Find("triple").ValueOr(3);
  Label aromatic = vocab.bonds.Find("aromatic").ValueOr(4);
  (void)bond_scores.Set(aromatic, single, 0.5);
  (void)bond_scores.Set(aromatic, dbl, 0.5);
  (void)bond_scores.Set(triple, single, 2.0);
  (void)bond_scores.Set(triple, dbl, 2.0);
  (void)bond_scores.Set(triple, aromatic, 2.0);

  FragmentIndexOptions index_options;
  index_options.max_fragment_edges = 5;
  index_options.spec.type = DistanceType::kMutation;
  index_options.spec.vertex_scores = ScoreMatrix::Zero();
  index_options.spec.edge_scores = bond_scores;

  // Features: frequent skeletons of the database.
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
  std::printf("index: %d classes over %zu fragment occurrences\n",
              index.value().num_classes(),
              index.value().shard(0).stats().num_fragment_occurrences);

  Graph query = IndeneScaffold(vocab);
  PisOptions options;
  options.sigma = sigma;
  PisEngine engine(&db, &index.value(), options);
  auto result = engine.Search(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "indene scaffold query (10 bonds), sigma=%.1f:\n"
      "  pruned %d -> %zu candidates, %zu matching molecules\n",
      sigma, db.size(), result.value().stats.candidates_final,
      result.value().answers.size());
  int shown = 0;
  auto model = index_options.spec.MakeCostModel();
  for (int gid : result.value().answers) {
    if (shown++ >= 5) break;
    double d = MinSuperimposedDistance(query, db.at(gid), *model, sigma);
    std::printf("  molecule #%d: %d atoms, %d bonds, distance %.1f\n", gid,
                db.at(gid).NumVertices(), db.at(gid).NumEdges(), d);
  }
  if (result.value().answers.empty()) {
    std::printf("  (no molecule within tolerance — try a larger --sigma)\n");
  }
  return 0;
}
