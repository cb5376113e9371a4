// Order-theoretic properties of the gSpan DFS-edge comparator: on tuples
// drawn from realistic states it must be a strict total order (otherwise
// the level-synchronous minimum search and the miner's extension grouping
// silently misbehave).
#include <gtest/gtest.h>

#include <vector>

#include "canonical/dfs_code.h"
#include "util/random.h"

namespace pis {
namespace {

// Random plausible tuple at a state with `n` mapped vertices: forward
// (i, n) from any i < n, or backward (n-1, j) to an ancestor j < n-2.
DfsEdge RandomTuple(Rng* rng, int n) {
  DfsEdge e;
  if (n >= 4 && rng->Bernoulli(0.4)) {
    e.from = n - 1;
    e.to = rng->UniformInt(0, n - 3);
  } else {
    e.from = rng->UniformInt(0, n - 1);
    e.to = n;
  }
  return e;
}

class DfsOrderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DfsOrderPropertyTest, StrictTotalOrderOnStateTuples) {
  Rng rng(GetParam());
  const int n = 4 + GetParam() % 4;
  std::vector<DfsEdge> tuples;
  for (int i = 0; i < 24; ++i) tuples.push_back(RandomTuple(&rng, n));

  for (const DfsEdge& a : tuples) {
    EXPECT_EQ(CompareDfsEdges(a, a), 0);
    for (const DfsEdge& b : tuples) {
      int ab = CompareDfsEdges(a, b);
      int ba = CompareDfsEdges(b, a);
      EXPECT_EQ(ab, -ba) << a.from << "," << a.to << " vs " << b.from << ","
                         << b.to;
      if (ab == 0) {
        // Only tuples with the same indices tie.
        EXPECT_EQ(a, b);
      }
    }
  }
  // Transitivity over sampled triples.
  for (size_t i = 0; i < tuples.size(); ++i) {
    for (size_t j = 0; j < tuples.size(); ++j) {
      for (size_t k = 0; k < tuples.size(); k += 3) {
        if (CompareDfsEdges(tuples[i], tuples[j]) < 0 &&
            CompareDfsEdges(tuples[j], tuples[k]) < 0) {
          EXPECT_LT(CompareDfsEdges(tuples[i], tuples[k]), 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsOrderPropertyTest, ::testing::Range(0, 10));

TEST(DfsCodeOrderTest, PrefixComparesSmaller) {
  DfsCode a({{0, 1}});
  DfsCode b({{0, 1}, {1, 2}});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(DfsCodeOrderTest, FirstDifferenceDecides) {
  DfsCode a({{0, 1}, {1, 2}});
  DfsCode b({{0, 1}, {0, 2}});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

}  // namespace
}  // namespace pis
