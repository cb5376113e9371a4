// Micro-benchmarks for the per-class index backends (trie and R-tree range
// queries) and full index construction.
#include <benchmark/benchmark.h>

#include "distance/score_matrix.h"
#include "graph/generator.h"
#include "index/fragment_index.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "mining/gspan.h"
#include "util/logging.h"
#include "util/random.h"

namespace pis {
namespace {

void BM_TrieRangeQuery(benchmark::State& state) {
  const int len = 6;
  const int alphabet = 4;
  Rng rng(1);
  LabelTrie trie(len);
  for (int gid = 0; gid < 2000; ++gid) {
    for (int k = 0; k < 8; ++k) {
      std::vector<Label> seq(len);
      for (Label& s : seq) s = rng.UniformInt(1, alphabet);
      trie.Insert(seq, gid);
    }
  }
  trie.Finalize();
  ScoreMatrix unit = ScoreMatrix::Unit();
  SequenceCostModel model{&unit, &unit, 0};
  double sigma = static_cast<double>(state.range(0));
  for (auto _ : state) {
    std::vector<Label> query(len);
    for (Label& s : query) s = rng.UniformInt(1, alphabet);
    size_t hits = 0;
    trie.RangeQuery(query, model, sigma, [&](int, double) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TrieRangeQuery)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_RTreeInsert(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    RTree tree(6);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      std::vector<double> p(6);
      for (double& x : p) x = rng.UniformDouble(0, 3);
      tree.Insert(p, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_RTreeInsert);

void BM_RTreeRangeQuery(benchmark::State& state) {
  Rng rng(3);
  RTree tree(6);
  for (int i = 0; i < 20000; ++i) {
    std::vector<double> p(6);
    for (double& x : p) x = rng.UniformDouble(0, 3);
    tree.Insert(p, i % 2000);
  }
  double radius = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    std::vector<double> center(6);
    for (double& x : center) x = rng.UniformDouble(0, 3);
    size_t hits = 0;
    tree.RangeQueryL1(center, radius, [&](int, double) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeRangeQuery)->Arg(1)->Arg(5)->Arg(20);

void BM_IndexBuild(benchmark::State& state) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(static_cast<int>(state.range(0)));
  GspanOptions mine;
  mine.min_support = std::max(2, db.size() / 100);
  mine.max_edges = 4;
  mine.use_labels = false;
  auto patterns = MineFrequentSubgraphs(db, mine);
  PIS_CHECK(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  for (auto _ : state) {
    auto index = FragmentIndex::Build(db, features, options);
    PIS_CHECK(index.ok());
    benchmark::DoNotOptimize(index.value().num_classes());
  }
  state.SetItemsProcessed(state.iterations() * db.size());
}
BENCHMARK(BM_IndexBuild)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GspanMining(benchmark::State& state) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(100);
  GspanOptions mine;
  mine.min_support = 5;
  mine.max_edges = static_cast<int>(state.range(0));
  mine.use_labels = false;
  for (auto _ : state) {
    auto patterns = MineFrequentSubgraphs(db, mine);
    PIS_CHECK(patterns.ok());
    benchmark::DoNotOptimize(patterns.value().size());
  }
}
BENCHMARK(BM_GspanMining)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pis
