// Micro-benchmarks for the algorithmic substrates: VF2 matching,
// minimum DFS code canonicalization, cost-bounded verification,
// connected-fragment enumeration, and gSpan feature mining.
#include <benchmark/benchmark.h>

#include "canonical/min_dfs.h"
#include "distance/mutation.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_enum.h"
#include "isomorphism/vf2.h"
#include "mining/gspan.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace pis {
namespace {

GraphDatabase& SharedDb() {
  static GraphDatabase db = [] {
    MoleculeGenerator gen;
    return gen.Generate(64);
  }();
  return db;
}

Graph SharedQuery(int edges, uint64_t seed) {
  QuerySampler sampler(&SharedDb(), {.seed = seed, .strip_vertex_labels = true});
  auto q = sampler.Sample(edges);
  PIS_CHECK(q.ok());
  return q.MoveValue();
}

void BM_Vf2FindFirst(benchmark::State& state) {
  Graph query = SharedQuery(static_cast<int>(state.range(0)), 1);
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  for (auto _ : state) {
    Vf2Matcher matcher(query, db.at(i++ % db.size()));
    benchmark::DoNotOptimize(matcher.FindFirst());
  }
}
BENCHMARK(BM_Vf2FindFirst)->Arg(4)->Arg(8)->Arg(16);

void BM_Vf2EnumerateAll(benchmark::State& state) {
  Graph query = SharedQuery(6, 2);
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  for (auto _ : state) {
    Vf2Matcher matcher(query, db.at(i++ % db.size()));
    size_t count =
        matcher.EnumerateAll([](const std::vector<VertexId>&) { return true; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_Vf2EnumerateAll);

void BM_MinDfsCodeSkeleton(benchmark::State& state) {
  // Canonicalize fragments of the given edge count — the index build's hot
  // path.
  std::vector<Graph> fragments;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    auto frag = SampleConnectedSubgraph(
        SharedDb().at(rng.UniformIndex(SharedDb().size())),
        static_cast<int>(state.range(0)), &rng);
    if (frag.ok()) fragments.push_back(frag.MoveValue());
  }
  CanonicalOptions options;
  options.use_labels = false;
  size_t i = 0;
  for (auto _ : state) {
    auto form = MinDfsCode(fragments[i++ % fragments.size()], options);
    benchmark::DoNotOptimize(form.ok());
  }
}
BENCHMARK(BM_MinDfsCodeSkeleton)->Arg(3)->Arg(6)->Arg(10);

void BM_CostBoundedVerify(benchmark::State& state) {
  Graph query = SharedQuery(16, 3);
  const GraphDatabase& db = SharedDb();
  MutationCostModel model = EdgeMutationModel();
  double sigma = static_cast<double>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    double d = MinSuperimposedDistance(query, db.at(i++ % db.size()), model, sigma);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CostBoundedVerify)->Arg(1)->Arg(4);

void BM_BruteForceVerify(benchmark::State& state) {
  // Ablation: enumerate-then-score (what PIS's verifier avoids).
  Graph query = SharedQuery(12, 3);
  const GraphDatabase& db = SharedDb();
  MutationCostModel model = EdgeMutationModel();
  size_t i = 0;
  for (auto _ : state) {
    double d = MinSuperimposedDistanceBruteForce(query, db.at(i++ % db.size()),
                                                 model);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_BruteForceVerify);

void BM_FragmentEnumeration(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  FragmentEnumOptions options;
  options.max_edges = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    size_t count = CountConnectedEdgeSubgraphs(db.at(i++ % db.size()), options);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FragmentEnumeration)->Arg(4)->Arg(6);

void BM_Automorphisms(benchmark::State& state) {
  Graph ring;
  for (int i = 0; i < 6; ++i) ring.AddVertex(1);
  for (int i = 0; i < 6; ++i) (void)ring.AddEdge(i, (i + 1) % 6, 1);
  for (auto _ : state) {
    auto autos = EnumerateAutomorphisms(ring);
    benchmark::DoNotOptimize(autos.size());
  }
}
BENCHMARK(BM_Automorphisms);

void BM_GspanSkeletons(benchmark::State& state) {
  // The feature-mining step of an index build (pis_server's defaults: 4
  // edges, 5% support) over 1000 skeletons; Arg = threads.
  static const GraphDatabase skeletons = [] {
    const GraphDatabase db = MoleculeGenerator().Generate(1000);
    GraphDatabase skeletons;
    for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
    return skeletons;
  }();
  GspanOptions options;
  options.min_support = skeletons.size() / 20;
  options.max_edges = 4;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto patterns = MineFrequentSubgraphs(skeletons, options);
    PIS_CHECK(patterns.ok());
    benchmark::DoNotOptimize(patterns.value());
  }
}
BENCHMARK(BM_GspanSkeletons)
    ->Arg(1)
    ->Arg(HardwareThreads())
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pis
