// Index explorer: inspect what the fragment-based index actually stores —
// equivalence classes, their skeleton codes, fragment/sequence counts, and
// per-class containment statistics. Useful when tuning feature mining.
//
//   ./build/examples/index_explorer [--db_size N] [--max_fragment_edges K]
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "pis.h"
#include "util/flags.h"

using namespace pis;

int main(int argc, char** argv) {
  int db_size = 300;
  int max_fragment_edges = 5;
  double min_support = 0.02;
  int top = 15;
  FlagSet flags;
  flags.AddInt("db_size", &db_size, "database size");
  flags.AddInt("max_fragment_edges", &max_fragment_edges, "max indexed size");
  flags.AddDouble("min_support", &min_support, "relative feature min support");
  flags.AddInt("top", &top, "number of classes to list");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  MoleculeGenerator generator;
  GraphDatabase db = generator.Generate(db_size);

  GspanOptions mine;
  mine.min_support =
      std::max(1, static_cast<int>(min_support * db.size()));
  mine.max_edges = max_fragment_edges;
  auto patterns = MineFrequentSubgraphs(db, mine);
  if (!patterns.ok()) {
    std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
    return 1;
  }
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);

  FragmentIndexOptions options;
  options.max_fragment_edges = max_fragment_edges;
  auto index = FragmentIndex::Build(db, features, options);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const FragmentIndex& idx = index.value();
  const FragmentIndexStats& stats = idx.stats();

  std::printf("=== index summary ===\n");
  std::printf("database graphs:        %d\n", db.size());
  std::printf("equivalence classes:    %zu\n", stats.num_classes);
  std::printf("fragment occurrences:   %zu\n", stats.num_fragment_occurrences);
  std::printf("sequences inserted:     %zu (automorphism variants, deduped)\n",
              stats.num_sequences_inserted);
  std::printf("subsets enumerated:     %zu\n", stats.num_subsets_enumerated);
  std::printf("build time:             %.2f s\n", stats.build_seconds);

  // Rank classes by containment breadth (how many graphs own one).
  std::vector<int> order(idx.num_classes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return idx.class_at(a).containing_graphs().size() >
           idx.class_at(b).containing_graphs().size();
  });
  std::printf("\n%-6s %-9s %-9s %-10s %-10s %s\n", "class", "vertices", "edges",
              "fragments", "graphs", "skeleton key");
  for (int i = 0; i < std::min<int>(top, idx.num_classes()); ++i) {
    const EquivalenceClassIndex& cls = idx.class_at(order[i]);
    std::printf("%-6d %-9d %-9d %-10zu %-10zu %s\n", order[i], cls.num_vertices(),
                cls.num_edges(), cls.num_fragments(),
                cls.containing_graphs().size(), cls.key().c_str());
  }
  std::printf("\nLow-coverage classes are the selective ones: a query fragment\n"
              "in such a class prunes nearly the whole database (paper Def. 5).\n");
  return 0;
}
