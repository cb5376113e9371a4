// Unit + property tests for the per-class backends: trie and R-tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "distance/score_matrix.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "util/random.h"

namespace pis {
namespace {

SequenceCostModel UnitModel(const ScoreMatrix& vm, const ScoreMatrix& em,
                            int vertex_positions) {
  SequenceCostModel model;
  model.vertex_scores = &vm;
  model.edge_scores = &em;
  model.num_vertex_positions = vertex_positions;
  return model;
}

TEST(LabelTrieTest, ExactAndRangeMatch) {
  LabelTrie trie(3);
  trie.Insert({1, 1, 1}, 0);
  trie.Insert({1, 1, 2}, 1);
  trie.Insert({2, 2, 2}, 2);
  trie.Finalize();
  ScoreMatrix unit = ScoreMatrix::Unit();
  SequenceCostModel model = UnitModel(unit, unit, 0);

  std::map<int, double> hits;
  trie.RangeQuery({1, 1, 1}, model, 0, [&](int gid, double d) {
    hits.emplace(gid, d);
  });
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.count(0), 1u);

  hits.clear();
  trie.RangeQuery({1, 1, 1}, model, 1, [&](int gid, double d) {
    auto [it, inserted] = hits.emplace(gid, d);
    if (!inserted) it->second = std::min(it->second, d);
  });
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[1], 1.0);

  hits.clear();
  trie.RangeQuery({1, 1, 1}, model, 3, [&](int gid, double d) {
    hits.emplace(gid, d);
  });
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_DOUBLE_EQ(hits[2], 3.0);
}

TEST(LabelTrieTest, VertexAndEdgeMatricesSplit) {
  // 1 vertex position (free mutations) + 2 edge positions (unit cost).
  LabelTrie trie(3);
  trie.Insert({9, 1, 1}, 0);
  trie.Finalize();
  ScoreMatrix zero = ScoreMatrix::Zero();
  ScoreMatrix unit = ScoreMatrix::Unit();
  SequenceCostModel model = UnitModel(zero, unit, 1);
  double got = -1;
  trie.RangeQuery({1, 1, 2}, model, 5, [&](int, double d) { got = d; });
  EXPECT_DOUBLE_EQ(got, 1.0);  // vertex mismatch free, one edge mismatch
}

TEST(LabelTrieTest, PostingsDeduplicatedPerLeaf) {
  LabelTrie trie(2);
  for (int i = 0; i < 5; ++i) trie.Insert({1, 1}, 7);
  trie.Insert({1, 1}, 3);
  trie.Insert({1, 1}, 7);
  trie.Finalize();
  EXPECT_EQ(trie.NumPostings(), 2u);
  EXPECT_EQ(trie.NumLeaves(), 1u);
}

// Property: trie range query equals linear scan over stored sequences.
class TrieOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TrieOracleTest, MatchesLinearScan) {
  Rng rng(GetParam());
  const int len = 2 + GetParam() % 5;
  const int alphabet = 3;
  LabelTrie trie(len);
  std::vector<std::pair<std::vector<Label>, int>> stored;
  for (int i = 0; i < 200; ++i) {
    std::vector<Label> seq(len);
    for (Label& s : seq) s = rng.UniformInt(1, alphabet);
    int gid = rng.UniformInt(0, 20);
    stored.emplace_back(seq, gid);
  }
  std::sort(stored.begin(), stored.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [seq, gid] : stored) trie.Insert(seq, gid);
  trie.Finalize();

  ScoreMatrix unit = ScoreMatrix::Unit();
  SequenceCostModel model = UnitModel(unit, unit, 0);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Label> query(len);
    for (Label& s : query) s = rng.UniformInt(1, alphabet);
    double sigma = rng.UniformInt(0, len);
    // Oracle: min distance per gid by linear scan.
    std::map<int, double> expected;
    for (const auto& [seq, gid] : stored) {
      double d = 0;
      for (int i = 0; i < len; ++i) d += (seq[i] == query[i]) ? 0 : 1;
      if (d > sigma) continue;
      auto [it, inserted] = expected.emplace(gid, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
    std::map<int, double> got;
    trie.RangeQuery(query, model, sigma, [&](int gid, double d) {
      auto [it, inserted] = got.emplace(gid, d);
      if (!inserted) it->second = std::min(it->second, d);
    });
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieOracleTest, ::testing::Range(0, 20));

TEST(RTreeTest, BasicRangeQuery) {
  RTree tree(2);
  tree.Insert({0, 0}, 1);
  tree.Insert({1, 0}, 2);
  tree.Insert({5, 5}, 3);
  std::map<int, double> hits;
  tree.RangeQueryL1({0, 0}, 1.0, [&](int payload, double d) {
    hits.emplace(payload, d);
  });
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[1], 0.0);
  EXPECT_DOUBLE_EQ(hits[2], 1.0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RTreeTest, GrowsAndSplits) {
  RTree tree(1, 4);
  for (int i = 0; i < 200; ++i) tree.Insert({static_cast<double>(i)}, i);
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_GT(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  int count = 0;
  tree.RangeQueryL1({100.0}, 4.5, [&](int, double) { ++count; });
  EXPECT_EQ(count, 9);  // 96..104
}

TEST(RTreeTest, DuplicatePointsAllowed) {
  RTree tree(2);
  for (int i = 0; i < 10; ++i) tree.Insert({1.0, 2.0}, i);
  int count = 0;
  tree.RangeQueryL1({1.0, 2.0}, 0.0, [&](int, double) { ++count; });
  EXPECT_EQ(count, 10);
}

// Property: R-tree L1 range query equals linear scan on random points.
class RTreeOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeOracleTest, MatchesLinearScan) {
  Rng rng(100 + GetParam());
  const int dims = 1 + GetParam() % 5;
  RTree tree(dims, 4 + GetParam() % 13);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> p(dims);
    for (double& x : p) x = rng.UniformDouble(0, 10);
    tree.Insert(p, i);
    points.push_back(std::move(p));
  }
  ASSERT_TRUE(tree.CheckInvariants());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> center(dims);
    for (double& x : center) x = rng.UniformDouble(0, 10);
    double radius = rng.UniformDouble(0, 6);
    std::map<int, double> expected;
    for (int i = 0; i < 300; ++i) {
      double d = 0;
      for (int k = 0; k < dims; ++k) d += std::abs(points[i][k] - center[k]);
      if (d <= radius) expected.emplace(i, d);
    }
    std::map<int, double> got;
    tree.RangeQueryL1(center, radius, [&](int payload, double d) {
      got.emplace(payload, d);
    });
    ASSERT_EQ(got.size(), expected.size());
    for (const auto& [payload, d] : expected) {
      ASSERT_EQ(got.count(payload), 1u);
      EXPECT_NEAR(got[payload], d, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeOracleTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace pis
