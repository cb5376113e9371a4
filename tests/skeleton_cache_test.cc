// The skeleton cache an index shares with its clones: concurrent query
// decompositions and incremental adds through one cache give exactly what
// a fresh single-threaded run gives.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/query_fragments.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "mining/pipeline.h"

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

// A loaded index starts with an empty cache of its own.
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

TEST(SkeletonCacheTest, ClonesSharingOneCacheMatchFreshSingleThreadedRuns) {
  const Inputs in = MakeInputs();
  // The reference: per thread, a fresh index (its own cold cache) run alone.
  std::vector<ThreadResult> want;
  for (int t = 0; t < kThreads; ++t) {
    FragmentIndex fresh = Load(in.saved);
    want.push_back(Work(&fresh, in, t));
  }

  // Clones of one loaded index share its (cold) cache; the threads fill it
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

}  // namespace
}  // namespace pis
