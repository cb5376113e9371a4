// Micro-benchmarks for the algorithmic substrates: VF2 matching,
// minimum DFS code canonicalization, cost-bounded verification,
// connected-fragment enumeration, feature mining, the serving
// host's write path, and the index set-up stages (build, save/load, query
// decomposition).
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "canonical/min_dfs.h"
#include "core/query_fragments.h"
#include "core/shard_filter.h"
#include "core/verifier.h"
#include "distance/mutation.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_enum.h"
#include "isomorphism/vf2.h"
#include "mining/gspan.h"
#include "mining/pipeline.h"
#include "server/engine_host.h"
#include "server/shard_ops.h"
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
  size_t i = 0;
  for (auto _ : state) {
    auto form = MinDfsCode(fragments[i++ % fragments.size()]);
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

// Heap bytes per stored graph: the growth of glibc's in-use heap across
// generating and storing 1,000 molecules (counter bytes_per_graph).
void BM_GraphDatabaseBytes(benchmark::State& state) {
  constexpr int kGraphs = 1000;
  auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  double bytes_per_graph = 0;
  for (auto _ : state) {
    MoleculeGenerator gen;
    const double before = in_use();
    GraphDatabase db = gen.Generate(kGraphs);
    bytes_per_graph = (in_use() - before) / kGraphs;
    benchmark::DoNotOptimize(db);
  }
  state.counters["bytes_per_graph"] = bytes_per_graph;
}
BENCHMARK(BM_GraphDatabaseBytes)->Unit(benchmark::kMillisecond);

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

/// perfbench's q16 shape: 1000 seed-1 molecules, features mined at 4 edges
/// and 5% support, a 3-shard index, and perfbench's seed-1 16-edge query
/// set (120 queries).
struct Q16Inputs {
  GraphDatabase db;
  std::vector<Graph> features;
  Result<ShardedFragmentIndex> index = Status::Internal("unbuilt");
  std::vector<Graph> queries;
  /// The query whose fragment count is nearest the set's mean, for the
  /// benchmarks that time one reply.
  Graph query;
  PisOptions options;  // sigma 2, as pis_server serves
};

Q16Inputs MakeQ16Inputs() {
  Q16Inputs in;
  MoleculeGeneratorOptions generate;
  generate.seed = 1;
  in.db = MoleculeGenerator(generate).Generate(1000);
  auto features = MineDiscriminativeFeatures(in.db, 4, 0.05, 1.0);
  PIS_CHECK(features.ok());
  in.features = features.MoveValue();
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  options.num_threads = HardwareThreads();
  in.index = ShardedFragmentIndex::Build(in.db, in.features, options,
                                         /*num_shards=*/3);
  PIS_CHECK(in.index.ok());
  QuerySampler sampler(&in.db,
                       {.seed = 1 * 31 + 7, .strip_vertex_labels = true});
  auto queries = sampler.SampleSet(16, 120);
  PIS_CHECK(queries.ok());
  in.queries = queries.MoveValue();
  std::vector<double> counts;
  for (const Graph& q : in.queries) {
    auto fragments =
        EnumerateIndexedQueryFragments(in.index.value().shard(0), q);
    PIS_CHECK(fragments.ok());
    counts.push_back(static_cast<double>(fragments.value().size()));
  }
  double mean = 0;
  for (double c : counts) mean += c / static_cast<double>(counts.size());
  size_t best = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (std::abs(counts[i] - mean) < std::abs(counts[best] - mean)) best = i;
  }
  in.query = in.queries[best];
  return in;
}

const Q16Inputs& SharedQ16Inputs() {
  static const Q16Inputs inputs = MakeQ16Inputs();
  return inputs;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void BM_ShardFilterQ16(benchmark::State& state) {
  // The in-process search of the q16 set, one query per iteration and
  // stage by stage: enumerate the query's indexed fragments, pass 1
  // (ShardFilter) on every shard, then plan (selectivities, partition) and
  // pass 2 (ShardRefine: partition bound and certificate), then
  // VerifyCandidates on what pass 2 left, so the refine / verify trade
  // shows in one run. 120 iterations walk the whole set once, a typical
  // sample (pass 2 keeps very different shares of different queries'
  // graphs); every counter is a mean per query.
  const Q16Inputs& in = SharedQ16Inputs();
  const ShardedFragmentIndex& index = in.index.value();
  const int num_shards = index.num_shards();
  double enumerate_us = 0;
  double pass1_us = 0;
  double refine_us = 0;
  double verify_us = 0;
  size_t fragments = 0;
  size_t candidates = 0;
  size_t answers = 0;
  size_t next = 0;
  for (auto _ : state) {
    const Graph& query = in.queries[next++ % in.queries.size()];
    auto start = std::chrono::steady_clock::now();
    FilterResult result;
    auto enumerated = EnumerateIndexedQueryFragments(index.shard(0), query);
    PIS_CHECK(enumerated.ok());
    result.fragments = enumerated.MoveValue();
    enumerate_us += MicrosSince(start);

    start = std::chrono::steady_clock::now();
    std::vector<ShardFilterResult> shards(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      PIS_CHECK(ShardFilter(index, s, result.fragments, in.options.sigma,
                            &shards[s])
                    .ok());
    }
    pass1_us += MicrosSince(start);

    start = std::chrono::steady_clock::now();
    PlanFilter(shards, in.options, &result);
    std::vector<int> refined;
    for (int s = 0; s < num_shards; ++s) {
      std::vector<int> shard_refined;
      size_t partition_candidates = 0;
      PIS_CHECK(ShardRefine(index, in.db, s, query, result.fragments,
                            result.partition, shards[s].survivors,
                            in.options.sigma, &shard_refined,
                            &partition_candidates)
                    .ok());
      refined.insert(refined.end(), shard_refined.begin(),
                     shard_refined.end());
    }
    refine_us += MicrosSince(start);
    candidates += refined.size();
    fragments += result.fragments.size();

    start = std::chrono::steady_clock::now();
    const VerifyResult verified = VerifyCandidates(
        in.db, query, refined, index.options().spec, in.options.sigma);
    verify_us += MicrosSince(start);
    answers += verified.answers.size();
    benchmark::DoNotOptimize(verified.answers.data());
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["enumerate_us"] = enumerate_us / n;
  state.counters["pass1_us"] = pass1_us / n;
  state.counters["refine_us"] = refine_us / n;
  state.counters["verify_us"] = verify_us / n;
  state.counters["fragments"] = static_cast<double>(fragments) / n;
  state.counters["candidates"] = static_cast<double>(candidates) / n;
  state.counters["answers"] = static_cast<double>(answers) / n;
}
BENCHMARK(BM_ShardFilterQ16)->Iterations(120)->Unit(benchmark::kMillisecond);

void BM_ShardFilterCertificateQ16(benchmark::State& state) {
  // Pass 2's graph half alone: the certificate over the Yp sets (the
  // partition bound's survivors on every shard) of every query of the q16
  // set, once per iteration. Reports microseconds per certified graph and,
  // per query, the Yp graphs and the candidates the certificate keeps.
  const Q16Inputs& in = SharedQ16Inputs();
  const ShardedFragmentIndex& index = in.index.value();
  struct Pass2 {
    std::vector<QueryFragment> fragments;
    std::vector<std::vector<int>> yp;  // per shard
  };
  std::vector<Pass2> sets;
  size_t graphs = 0;
  for (const Graph& query : in.queries) {
    FilterResult plan;
    auto enumerated = EnumerateIndexedQueryFragments(index.shard(0), query);
    PIS_CHECK(enumerated.ok());
    plan.fragments = enumerated.MoveValue();
    std::vector<ShardFilterResult> shards(index.num_shards());
    for (int s = 0; s < index.num_shards(); ++s) {
      PIS_CHECK(ShardFilter(index, s, plan.fragments, in.options.sigma,
                            &shards[s])
                    .ok());
    }
    PlanFilter(shards, in.options, &plan);
    Pass2 set;
    set.yp.resize(index.num_shards());
    for (int s = 0; s < index.num_shards(); ++s) {
      PIS_CHECK(ShardPartitionBound(index, s, plan.fragments, plan.partition,
                                    shards[s].survivors, in.options.sigma,
                                    &set.yp[s])
                    .ok());
      graphs += set.yp[s].size();
    }
    set.fragments = std::move(plan.fragments);
    sets.push_back(std::move(set));
  }
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (size_t q = 0; q < sets.size(); ++q) {
      for (const std::vector<int>& survivors : sets[q].yp) {
        std::vector<int> candidates = survivors;
        CertifyCandidates(in.db, in.queries[q], sets[q].fragments,
                          index.options().spec, in.options.sigma,
                          &candidates);
        kept += candidates.size();
        benchmark::DoNotOptimize(candidates.data());
      }
    }
  }
  const double queries = static_cast<double>(sets.size());
  state.counters["yp"] = static_cast<double>(graphs) / queries;
  state.counters["candidates"] = static_cast<double>(kept) / queries;
  state.counters["us_per_graph"] = benchmark::Counter(
      static_cast<double>(graphs) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert,
      benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_ShardFilterCertificateQ16)->Unit(benchmark::kMillisecond);

void BM_ShardFilterReplyCodec(benchmark::State& state) {
  // A replica's shard_filter reply for the typical q16 query over all three
  // shards: encode it to one protocol line, then parse and decode it as
  // the router does.
  const Q16Inputs& in = SharedQ16Inputs();
  const ShardedFragmentIndex& index = in.index.value();
  ShardFilterReply reply;
  auto enumerated = EnumerateIndexedQueryFragments(index.shard(0), in.query);
  PIS_CHECK(enumerated.ok());
  reply.fragments = enumerated.MoveValue();
  for (int s = 0; s < index.num_shards(); ++s) {
    reply.shards.push_back(s);
    reply.results.emplace_back();
    PIS_CHECK(ShardFilter(index, s, reply.fragments, in.options.sigma,
                          &reply.results.back())
                  .ok());
  }
  size_t bytes = 0;
  for (auto _ : state) {
    JsonValue json = JsonValue::Object();
    json.Set("ok", true);
    ShardFilterReplyToJson(reply, &json);
    const std::string line = json.Serialize();
    auto parsed = JsonValue::Parse(line);
    PIS_CHECK(parsed.ok());
    auto decoded = ShardFilterReplyFromJson(parsed.value());
    PIS_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded.value().results.data());
    bytes = line.size();
  }
  state.counters["fragments"] = static_cast<double>(reply.fragments.size());
  state.counters["reply_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ShardFilterReplyCodec)->Unit(benchmark::kMicrosecond);

void BM_ShardedIndexBuild(benchmark::State& state) {
  // perfbench's index build: the q16 database (1,000 seed-1 molecules) and
  // features, 3 shards on HardwareThreads() threads.
  const Q16Inputs& in = SharedQ16Inputs();
  FragmentIndexOptions options = in.index.value().options();
  options.num_threads = HardwareThreads();
  for (auto _ : state) {
    auto index = ShardedFragmentIndex::Build(in.db, in.features, options,
                                             /*num_shards=*/3);
    PIS_CHECK(index.ok());
    benchmark::DoNotOptimize(index.value().db_size());
  }
}
BENCHMARK(BM_ShardedIndexBuild)->Unit(benchmark::kMillisecond);

void BM_IndexSaveLoadDir(benchmark::State& state) {
  // SaveDir then LoadDir of the q16 index (3 shards) in a fresh directory;
  // counters split the time.
  const Q16Inputs& in = SharedQ16Inputs();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pis_bm_save_load_" + std::to_string(::getpid()));
  double save_ms = 0;
  double load_ms = 0;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    auto start = std::chrono::steady_clock::now();
    PIS_CHECK(in.index.value().SaveDir(dir.string()).ok());
    save_ms += MicrosSince(start) / 1e3;
    start = std::chrono::steady_clock::now();
    auto loaded = ShardedFragmentIndex::LoadDir(dir.string());
    load_ms += MicrosSince(start) / 1e3;
    PIS_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded.value().db_size());
  }
  std::filesystem::remove_all(dir);
  const double n = static_cast<double>(state.iterations());
  state.counters["save_ms"] = save_ms / n;
  state.counters["load_ms"] = load_ms / n;
}
BENCHMARK(BM_IndexSaveLoadDir)->Unit(benchmark::kMillisecond);

void BM_EnumerateQueryFragmentsQ16(benchmark::State& state) {
  // Algorithm 2's decomposition of one q16 query per iteration, walking the
  // set, against a warm skeleton table (building the inputs decomposed
  // every query once).
  const Q16Inputs& in = SharedQ16Inputs();
  const FragmentIndex& shard = in.index.value().shard(0);
  size_t next = 0;
  size_t fragments = 0;
  for (auto _ : state) {
    auto enumerated =
        EnumerateIndexedQueryFragments(shard, in.queries[next++ % in.queries.size()]);
    PIS_CHECK(enumerated.ok());
    fragments += enumerated.value().size();
  }
  state.counters["fragments"] =
      static_cast<double>(fragments) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EnumerateQueryFragmentsQ16)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pis
