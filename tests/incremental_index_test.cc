// Incremental maintenance: AddGraph must behave exactly like a full rebuild
// with the same feature set.
#include <gtest/gtest.h>

#include <map>

#include "core/naive_search.h"
#include "core/pis.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "index_reference.h"
#include "mining/gspan.h"

namespace pis {
namespace {

std::vector<Graph> MineFeatures(const GraphDatabase& db, int max_edges) {
  GspanOptions mine;
  mine.min_support = 2;
  mine.max_edges = max_edges;
  auto patterns = MineFrequentSubgraphs(db, mine);
  EXPECT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  return features;
}

class IncrementalIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalIndexTest, AddGraphEqualsRebuild) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 300 + GetParam();
  gopt.mean_vertices = 13;
  gopt.max_vertices = 30;
  MoleculeGenerator gen(gopt);
  GraphDatabase full = gen.Generate(16);

  // Features mined over the initial prefix only (the AddGraph contract).
  GraphDatabase prefix;
  for (int i = 0; i < 10; ++i) prefix.Add(full.at(i));
  std::vector<Graph> features = MineFeatures(prefix, 4);

  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  auto incremental = FragmentIndex::Build(prefix, features, options);
  ASSERT_TRUE(incremental.ok());
  for (int i = 10; i < 16; ++i) {
    auto gid = incremental.value().AddGraph(full.at(i));
    ASSERT_TRUE(gid.ok());
    EXPECT_EQ(gid.value(), i);
  }
  auto rebuilt = FragmentIndex::Build(full, features, options);
  ASSERT_TRUE(rebuilt.ok());

  EXPECT_EQ(incremental.value().db_size(), rebuilt.value().db_size());
  EXPECT_EQ(incremental.value().num_classes(), rebuilt.value().num_classes());

  // Identical range-query behaviour on sampled fragments.
  QuerySampler sampler(&full, {.seed = 9, .strip_vertex_labels = true});
  for (int trial = 0; trial < 6; ++trial) {
    auto fragment = sampler.Sample(3);
    ASSERT_TRUE(fragment.ok());
    if (!testing::HasClass(rebuilt.value(), fragment.value())) continue;
    std::map<int, double> a;
    std::map<int, double> b;
    auto collect = [](std::map<int, double>* out) {
      return [out](int gid, double d) {
        auto [it, ok] = out->emplace(gid, d);
        if (!ok) it->second = std::min(it->second, d);
      };
    };
    ASSERT_TRUE(testing::RangeQuery(incremental.value(), fragment.value(), 2,
                                    collect(&a))
                    .ok());
    ASSERT_TRUE(
        testing::RangeQuery(rebuilt.value(), fragment.value(), 2, collect(&b))
            .ok());
    EXPECT_EQ(a, b) << "trial " << trial;
  }

  // End-to-end: the incrementally maintained index answers SSSD correctly.
  PisOptions pis_options;
  pis_options.sigma = 2;
  const ShardedFragmentIndex wrapped =
      ShardedFragmentIndex::FromFragmentIndex(incremental.MoveValue());
  PisEngine engine(&full, &wrapped, pis_options);
  auto query = sampler.Sample(8);
  ASSERT_TRUE(query.ok());
  auto pis = engine.Search(query.value());
  ASSERT_TRUE(pis.ok());
  SearchResult naive =
      NaiveSearch(full, query.value(), options.spec, pis_options.sigma);
  EXPECT_EQ(pis.value().answers, naive.answers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalIndexTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace pis
