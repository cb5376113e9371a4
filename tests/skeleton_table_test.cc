// The skeleton table that feature mining, the index build and query
// decomposition classify through: an index shares it with its clones, so
// concurrent query decompositions and incremental adds through one table
// give exactly what a fresh single-threaded run gives; the miner and the
// index classify every subset alike; and a table canonicalizes only the
// steps and skeletons it has not met.
#include "index/skeleton_table.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/query_fragments.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "mining/gspan.h"
#include "mining/pipeline.h"
#include "util/random.h"

namespace pis {
namespace {

constexpr int kThreads = 4;

struct Inputs {
  GraphDatabase db;
  std::vector<Graph> features;
  std::vector<Graph> queries;
  std::vector<Graph> additions;
  std::string saved;  // the built index, saved
};

Inputs MakeInputs() {
  Inputs in;
  MoleculeGeneratorOptions gopt;
  gopt.seed = 77;
  GraphDatabase all = MoleculeGenerator(gopt).Generate(60 + kThreads * 3);
  for (int gid = 0; gid < 60; ++gid) in.db.Add(all.at(gid));
  for (int gid = 60; gid < all.size(); ++gid) in.additions.push_back(all.at(gid));
  auto features = MineDiscriminativeFeatures(in.db, 4, 0.05, 1.0);
  EXPECT_TRUE(features.ok());
  in.features = features.MoveValue();
  QuerySampler sampler(&in.db, {.seed = 5, .strip_vertex_labels = true});
  auto queries = sampler.SampleSet(12, 16);
  EXPECT_TRUE(queries.ok());
  in.queries = queries.MoveValue();
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  auto index = FragmentIndex::Build(in.db, in.features, options);
  EXPECT_TRUE(index.ok());
  std::ostringstream bytes;
  EXPECT_TRUE(index.value().Save(bytes).ok());
  in.saved = bytes.str();
  return in;
}

// A loaded index starts with an empty table of its own.
FragmentIndex Load(const std::string& saved) {
  std::istringstream in(saved);
  auto loaded = FragmentIndex::Load(in);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.MoveValue();
}

std::string Saved(const FragmentIndex& index) {
  std::ostringstream bytes;
  EXPECT_TRUE(index.Save(bytes).ok());
  return bytes.str();
}

// What one thread computes: every query's fragments, then the index after
// adding the thread's graphs.
struct ThreadResult {
  std::vector<std::vector<QueryFragment>> fragments;
  std::string added;
};

ThreadResult Work(FragmentIndex* index, const Inputs& in, int thread) {
  ThreadResult run;
  for (const Graph& query : in.queries) {
    auto fragments = EnumerateIndexedQueryFragments(*index, query);
    EXPECT_TRUE(fragments.ok()) << fragments.status().ToString();
    run.fragments.push_back(fragments.MoveValue());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(index->AddGraph(in.additions[thread * 3 + i]).ok());
  }
  run.added = Saved(*index);
  return run;
}

void ExpectSameFragments(const std::vector<QueryFragment>& got,
                         const std::vector<QueryFragment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].prepared.class_id, want[i].prepared.class_id);
    EXPECT_EQ(got[i].prepared.num_edges, want[i].prepared.num_edges);
    EXPECT_EQ(got[i].prepared.labels, want[i].prepared.labels);
    EXPECT_EQ(got[i].prepared.weights, want[i].prepared.weights);
    EXPECT_EQ(got[i].vertices, want[i].vertices);
  }
}

TEST(SkeletonTableTest, ClonesSharingOneTableMatchFreshSingleThreadedRuns) {
  const Inputs in = MakeInputs();
  // The reference: per thread, a fresh index (its own cold table) run alone.
  std::vector<ThreadResult> want;
  for (int t = 0; t < kThreads; ++t) {
    FragmentIndex fresh = Load(in.saved);
    want.push_back(Work(&fresh, in, t));
  }

  // Clones of one loaded index share its (cold) table; the threads fill it
  // concurrently.
  const FragmentIndex shared = Load(in.saved);
  std::vector<FragmentIndex> clones;
  for (int t = 0; t < kThreads; ++t) {
    auto clone = shared.Clone();
    ASSERT_TRUE(clone.ok());
    clones.push_back(clone.MoveValue());
  }
  std::vector<ThreadResult> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = Work(&clones[t], in, t); });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ASSERT_EQ(got[t].fragments.size(), want[t].fragments.size());
    for (size_t q = 0; q < got[t].fragments.size(); ++q) {
      ExpectSameFragments(got[t].fragments[q], want[t].fragments[q]);
    }
    EXPECT_TRUE(got[t].added == want[t].added);
  }
  // The source index saw none of its clones' adds.
  EXPECT_TRUE(Saved(shared) == in.saved);
}

// Molecules and random connected graphs over small alphabets.
GraphDatabase MixedDatabase() {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 5;
  GraphDatabase db = MoleculeGenerator(gopt).Generate(40);
  Rng rng(9);
  RandomGraphOptions opts;
  opts.num_vertices = 9;
  opts.num_edges = 13;
  opts.vertex_alphabet = 2;
  opts.edge_alphabet = 2;
  for (int i = 0; i < 40; ++i) db.Add(GenerateRandomConnectedGraph(opts, &rng));
  return db;
}

// The miner and the index classify through tables of their own. Indexing
// every pattern mined at support 1, every subset the build meets falls in
// a class, and each class holds exactly the graphs the miner counted in
// its pattern's support, at every size cap and thread count; a subset the
// two classified differently would break one of the equalities.
TEST(SkeletonTableTest, MinedSupportSetsEqualIndexedContainment) {
  const GraphDatabase db = MixedDatabase();
  for (int max_edges = 1; max_edges <= 6; ++max_edges) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("max_edges " + std::to_string(max_edges) + " threads " +
                   std::to_string(threads));
      GspanOptions mine;
      mine.min_support = 1;
      mine.max_edges = max_edges;
      mine.num_threads = threads;
      auto patterns = MineFrequentSubgraphs(db, mine);
      ASSERT_TRUE(patterns.ok()) << patterns.status().ToString();
      std::vector<Graph> features;
      for (const Pattern& p : patterns.value()) features.push_back(p.graph);
      FragmentIndexOptions options;
      options.max_fragment_edges = max_edges;
      options.num_threads = threads;
      auto index = FragmentIndex::Build(db, features, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      // At support 1 every skeleton in the database is mined, so every
      // subset the build meets is an indexed fragment.
      EXPECT_EQ(index.value().stats().num_fragment_occurrences,
                index.value().stats().num_subsets_enumerated);
      // Mined patterns are distinct skeletons, so class i is pattern i.
      ASSERT_EQ(index.value().num_classes(),
                static_cast<int>(patterns.value().size()));
      for (size_t i = 0; i < patterns.value().size(); ++i) {
        const Pattern& pattern = patterns.value()[i];
        const EquivalenceClassIndex& cls = index.value().class_at(i);
        EXPECT_EQ(cls.num_edges(), pattern.num_edges());
        EXPECT_EQ(cls.containing_graphs(), pattern.support_set)
            << pattern.code.ToKey();
      }
    }
  }
}

// A table canonicalizes once per one-edge step and once per automorphism
// set it publishes: after a build, scanning the same graphs again (a second
// build scan, query decompositions, adds) costs no MinDfsCode call.
TEST(SkeletonTableTest, CanonicalizesOnlyNewStepsAndSkeletons) {
  const GraphDatabase db = MixedDatabase();
  auto features = MineDiscriminativeFeatures(db, 6, 0.05, 1.0, 1);
  ASSERT_TRUE(features.ok());
  FragmentIndexOptions options;
  options.max_fragment_edges = 6;
  auto built = FragmentIndex::Build(db, features.value(), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  FragmentIndex& index = built.value();
  const SkeletonTable& table = index.skeletons();
  const size_t after_build = table.num_canonicalizations();

  std::set<int> indexed;
  IndexScan scan(index);
  for (const Graph& g : db.graphs()) {
    scan.Run(g, [&](const SkeletonSubset& subset, int class_id) {
      if (class_id >= 0) indexed.insert(subset.skeleton);
      return true;
    });
  }
  EXPECT_GT(indexed.size(), 0u);
  EXPECT_EQ(after_build, table.num_transitions() + indexed.size());
  EXPECT_LT(table.num_transitions(), 1000u);

  for (const Graph& g : db.graphs()) {
    ASSERT_TRUE(EnumerateIndexedQueryFragments(index, g).ok());
  }
  for (int gid = 0; gid < 5; ++gid) ASSERT_TRUE(index.AddGraph(db.at(gid)).ok());
  EXPECT_EQ(table.num_canonicalizations(), after_build);
}

}  // namespace
}  // namespace pis
