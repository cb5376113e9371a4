// Micro-benchmarks for the algorithmic substrates: VF2 matching,
// minimum DFS code canonicalization, cost-bounded verification,
// connected-fragment enumeration, gSpan feature mining, and the serving
// host's write path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "canonical/min_dfs.h"
#include "distance/mutation.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_enum.h"
#include "isomorphism/vf2.h"
#include "mining/gspan.h"
#include "mining/pipeline.h"
#include "server/engine_host.h"
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
  // edges, 5% support, structure only) over 1000 molecules; Arg = threads.
  static const GraphDatabase db = MoleculeGenerator().Generate(1000);
  GspanOptions options;
  options.min_support = db.size() / 20;
  options.max_edges = 4;
  options.num_threads = static_cast<int>(state.range(0));
  options.use_labels = false;
  for (auto _ : state) {
    auto patterns = MineFrequentSubgraphs(db, options);
    PIS_CHECK(patterns.ok());
    benchmark::DoNotOptimize(patterns.value());
  }
}
BENCHMARK(BM_GspanSkeletons)
    ->Arg(1)
    ->Arg(HardwareThreads())
    ->Unit(benchmark::kMillisecond);

/// A database of `size` molecules with its 3-shard index (the perfbench
/// serving shape: 4-edge fragments, 5% support), plus graphs to add. Every
/// size shares one feature set, mined over the first 1000 graphs, so sizes
/// differ only in how much state a write could copy.
struct HostInputs {
  GraphDatabase db;
  std::vector<Graph> additions;
  Result<ShardedFragmentIndex> index = Status::Internal("unbuilt");
};

const HostInputs& SharedHostInputs(int size) {
  static std::map<int, HostInputs> cache;
  auto [it, fresh] = cache.try_emplace(size);
  if (!fresh) return it->second;
  constexpr int kFeatureGraphs = 1000;
  constexpr int kAdditions = 256;
  const GraphDatabase all =
      MoleculeGenerator().Generate(std::max(size, kFeatureGraphs) + kAdditions);
  GraphDatabase feature_db;
  for (int gid = 0; gid < kFeatureGraphs; ++gid) feature_db.Add(all.at(gid));
  auto features = MineDiscriminativeFeatures(feature_db, 4, 0.05, 1.0);
  PIS_CHECK(features.ok());
  HostInputs& inputs = it->second;
  for (int gid = 0; gid < size; ++gid) inputs.db.Add(all.at(gid));
  for (int i = 0; i < kAdditions; ++i) {
    inputs.additions.push_back(all.at(all.size() - kAdditions + i));
  }
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  options.num_threads = HardwareThreads();
  inputs.index = ShardedFragmentIndex::Build(inputs.db, features.value(),
                                             options, /*num_shards=*/3);
  PIS_CHECK(inputs.index.ok());
  return inputs;
}

void BM_EngineHostAdd(benchmark::State& state) {
  // One AddGraph through EngineHost (no WAL) while a reader pins a
  // published snapshot, so the commit must not mutate anything that
  // snapshot holds; Arg = graphs in the database.
  const HostInputs& inputs = SharedHostInputs(static_cast<int>(state.range(0)));
  EngineHost host(inputs.db, inputs.index.value());
  const std::shared_ptr<const EngineHost::Snapshot> pinned = host.snapshot();
  size_t next = 0;
  for (auto _ : state) {
    Result<int> gid =
        host.AddGraph(inputs.additions[next++ % inputs.additions.size()]);
    PIS_CHECK(gid.ok());
    benchmark::DoNotOptimize(gid.value());
  }
  benchmark::DoNotOptimize(pinned->epoch);
}
// A fixed iteration count bounds the growth of the database to 256 graphs.
BENCHMARK(BM_EngineHostAdd)
    ->Arg(1000)
    ->Arg(4000)
    ->Iterations(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pis
