#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "index_reference.h"
#include "util/random.h"

namespace pis {
namespace {

using ::pis::testing::ComputeSelectivity;

WeightedFragment WF(double weight, std::vector<VertexId> vertices) {
  WeightedFragment f;
  f.weight = weight;
  f.vertices = std::move(vertices);
  // OverlapGraph requires sorted vertex sets (Definition 3 overlap is a
  // sorted-vector intersection).
  std::sort(f.vertices.begin(), f.vertices.end());
  return f;
}

TEST(OverlapGraphTest, EdgesFromVertexIntersection) {
  std::vector<WeightedFragment> frags = {
      WF(1, {0, 1}), WF(2, {1, 2}), WF(3, {3, 4})};
  OverlapGraph g(frags);
  EXPECT_EQ(g.size(), 3);
  EXPECT_TRUE(g.Adjacent(0, 1));
  EXPECT_FALSE(g.Adjacent(0, 2));
  EXPECT_FALSE(g.Adjacent(1, 2));
  EXPECT_TRUE(g.IsIndependent({0, 2}));
  EXPECT_FALSE(g.IsIndependent({0, 1}));
  EXPECT_DOUBLE_EQ(g.TotalWeight({0, 2}), 4.0);
}

TEST(GreedyTest, PaperExample5) {
  // Figure 7: path w1-w2-...-w7 with w4 >= w6 >= w5 >= w1 >= w7 >= w2 >= w3.
  // Greedy picks w4, then w6 is removed? No: the figure is a path
  // 1-2-3-4-5-6-7; picking 4 removes 3,5; then 6 removes 7; then 1 removes
  // 2... the paper says the solution is {w4, w6?}.. it reports {w4, w5?}..
  // It reports w4, w5, w2 for a different adjacency; we encode the path and
  // the stated weight order and check the greedy invariant instead: the
  // result is maximal and independent.
  std::vector<WeightedFragment> frags;
  double weights[7] = {4, 2, 1, 7, 5, 6, 3};  // w4 max, then w6, w5, w1, w7, w2, w3
  for (int i = 0; i < 7; ++i) {
    std::vector<VertexId> vs = {i, i + 1};  // path overlap structure
    frags.push_back(WF(weights[i], vs));
  }
  OverlapGraph g(frags);
  std::vector<int> s = GreedyMwis(g);
  EXPECT_TRUE(g.IsIndependent(s));
  // Greedy: picks 3 (w=7), removing 2 and 4; picks 5 (w=6), removing 6;
  // picks 0 (w=4), removing 1. Result {0,3,5}.
  EXPECT_EQ(s, (std::vector<int>{0, 3, 5}));
}

TEST(GreedyTest, EmptyGraph) {
  OverlapGraph g({});
  EXPECT_TRUE(GreedyMwis(g).empty());
  EXPECT_TRUE(ExactMwis(g).empty());
  EXPECT_TRUE(EnhancedGreedyMwis(g, 2).empty());
  EXPECT_TRUE(SingleBestMwis(g).empty());
}

TEST(EnhancedGreedyTest, BeatsGreedyOnStarCounterexample) {
  // Star: center weight 10, leaves 6+6+6. Greedy takes the center (10);
  // the optimum takes the three leaves (18). EnhancedGreedy(2) finds a
  // 2-set of leaves (12) first, then the remaining leaf.
  std::vector<WeightedFragment> frags = {
      WF(10, {0, 1, 2, 3}),  // center overlaps everyone
      WF(6, {1}), WF(6, {2}), WF(6, {3})};
  OverlapGraph g(frags);
  std::vector<int> greedy = GreedyMwis(g);
  EXPECT_EQ(g.TotalWeight(greedy), 10);
  std::vector<int> enhanced = EnhancedGreedyMwis(g, 2);
  EXPECT_EQ(g.TotalWeight(enhanced), 18);
  std::vector<int> exact = ExactMwis(g);
  EXPECT_EQ(g.TotalWeight(exact), 18);
}

TEST(ExactTest, SmallKnownInstance) {
  // 4-cycle with weights 3,5,4,2: best independent set {1,3} = 7.
  std::vector<WeightedFragment> frags = {WF(3, {0, 1}), WF(5, {1, 2}),
                                         WF(4, {2, 3}), WF(2, {3, 0})};
  OverlapGraph g(frags);
  std::vector<int> s = ExactMwis(g);
  EXPECT_EQ(s, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(g.TotalWeight(s), 7.0);
}

// Fragment-dense queries: adjacency must answer correctly on a large
// near-clique (this shape made the old linear-scan Adjacent superlinear
// inside EnhancedGreedyMwis's DFS).
TEST(OverlapGraphTest, DenseOverlapStaysConsistent) {
  std::vector<WeightedFragment> frags;
  // 30 fragments all overlapping on vertex 0 (a clique in the overlap
  // graph) plus 10 pairwise-disjoint ones.
  for (int i = 0; i < 30; ++i) {
    frags.push_back(WF(1.0 + i * 0.1, {0, i + 1}));
  }
  for (int i = 0; i < 10; ++i) {
    frags.push_back(WF(0.5 + i * 0.1, {100 + i}));
  }
  OverlapGraph g(frags);
  // Adjacent must agree with brute-force vertex intersection, both
  // argument orders.
  for (int i = 0; i < g.size(); ++i) {
    std::vector<int> nb;
    g.ForEachNeighbor(i, [&nb](int u) { nb.push_back(u); });
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (int j = 0; j < g.size(); ++j) {
      if (i == j) continue;
      bool expected = false;
      for (VertexId u : frags[i].vertices) {
        for (VertexId v : frags[j].vertices) {
          if (u == v) expected = true;
        }
      }
      EXPECT_EQ(g.Adjacent(i, j), expected) << i << " vs " << j;
      EXPECT_EQ(g.Adjacent(j, i), expected);
      EXPECT_EQ(std::binary_search(nb.begin(), nb.end(), j), expected);
    }
  }
  // On clique + isolated vertices the optimum is the heaviest clique
  // member plus every isolated fragment; all heuristics find it here.
  std::vector<int> exact = ExactMwis(g);
  std::vector<int> enhanced = EnhancedGreedyMwis(g, 2);
  std::vector<int> greedy = GreedyMwis(g);
  EXPECT_TRUE(g.IsIndependent(enhanced));
  double expected_weight = g.weight(29);  // heaviest clique member
  for (int i = 30; i < 40; ++i) expected_weight += g.weight(i);
  EXPECT_DOUBLE_EQ(g.TotalWeight(exact), expected_weight);
  EXPECT_DOUBLE_EQ(g.TotalWeight(enhanced), expected_weight);
  EXPECT_DOUBLE_EQ(g.TotalWeight(greedy), expected_weight);
}

// The adjacency-list overlap graph the bit matrix replaced, and its three
// solvers, kept as the reference the bit rows must reproduce exactly.
struct ListOverlapGraph {
  std::vector<double> weights;
  std::vector<std::vector<int>> adjacency;  // ascending

  explicit ListOverlapGraph(const std::vector<WeightedFragment>& frags) {
    const int n = static_cast<int>(frags.size());
    adjacency.assign(n, {});
    for (int i = 0; i < n; ++i) {
      weights.push_back(frags[i].weight);
      for (int j = 0; j < n; ++j) {
        if (j != i && Overlap(frags[i], frags[j])) adjacency[i].push_back(j);
      }
    }
  }

  static bool Overlap(const WeightedFragment& a, const WeightedFragment& b) {
    for (VertexId u : a.vertices) {
      if (std::binary_search(b.vertices.begin(), b.vertices.end(), u)) {
        return true;
      }
    }
    return false;
  }

  int size() const { return static_cast<int>(weights.size()); }
  bool Adjacent(int a, int b) const {
    return std::binary_search(adjacency[a].begin(), adjacency[a].end(), b);
  }
};

std::vector<int> ReferenceGreedy(const ListOverlapGraph& g) {
  std::vector<int> selected;
  std::vector<bool> alive(g.size(), true);
  while (true) {
    int best = -1;
    for (int v = 0; v < g.size(); ++v) {
      if (alive[v] && (best < 0 || g.weights[v] > g.weights[best])) best = v;
    }
    if (best < 0) break;
    selected.push_back(best);
    alive[best] = false;
    for (int nb : g.adjacency[best]) alive[nb] = false;
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<int> ReferenceEnhancedGreedy(const ListOverlapGraph& g, int k) {
  std::vector<int> selected;
  std::vector<bool> alive(g.size(), true);
  std::vector<int> best_set;
  std::vector<int> current;
  double best_weight = 0;
  std::function<void(int, double)> enumerate = [&](int start, double weight) {
    if (weight > best_weight) {
      best_weight = weight;
      best_set = current;
    }
    if (static_cast<int>(current.size()) >= k) return;
    for (int v = start; v < g.size(); ++v) {
      if (!alive[v]) continue;
      bool independent = true;
      for (int s : current) independent = independent && !g.Adjacent(s, v);
      if (!independent) continue;
      current.push_back(v);
      enumerate(v + 1, weight + g.weights[v]);
      current.pop_back();
    }
  };
  while (true) {
    best_set.clear();
    best_weight = 0;
    enumerate(0, 0);
    if (best_set.empty()) break;
    for (int v : best_set) {
      selected.push_back(v);
      alive[v] = false;
      for (int nb : g.adjacency[v]) alive[nb] = false;
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<int> ReferenceExact(const ListOverlapGraph& g) {
  std::vector<int> best_set;
  double best_weight = -1;
  std::vector<int> current;
  std::vector<int> excluded(g.size(), -1);
  std::function<void(double)> solve = [&](double weight) {
    double remaining = 0;
    int pivot = -1;
    for (int v = 0; v < g.size(); ++v) {
      if (excluded[v] >= 0) continue;
      remaining += g.weights[v];
      if (pivot < 0 || g.weights[v] > g.weights[pivot]) pivot = v;
    }
    if (weight > best_weight) {
      best_weight = weight;
      best_set = current;
    }
    if (pivot < 0 || weight + remaining <= best_weight) return;
    const int depth = static_cast<int>(current.size());
    std::vector<int> newly_excluded = {pivot};
    excluded[pivot] = depth;
    for (int nb : g.adjacency[pivot]) {
      if (excluded[nb] < 0) {
        excluded[nb] = depth;
        newly_excluded.push_back(nb);
      }
    }
    current.push_back(pivot);
    solve(weight + g.weights[pivot]);
    current.pop_back();
    for (int v : newly_excluded) excluded[v] = -1;
    excluded[pivot] = depth;
    solve(weight);
    excluded[pivot] = -1;
  };
  solve(0);
  std::sort(best_set.begin(), best_set.end());
  return best_set;
}

/// `n` fragments of 1-3 vertices over a universe of `universe` vertices.
std::vector<WeightedFragment> RandomFragments(Rng* rng, int n, int universe) {
  std::vector<WeightedFragment> frags;
  for (int i = 0; i < n; ++i) {
    std::vector<VertexId> vs;
    const int k = rng->UniformInt(1, 3);
    for (int j = 0; j < k; ++j) vs.push_back(rng->UniformInt(0, universe - 1));
    std::sort(vs.begin(), vs.end());
    vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
    frags.push_back(WF(rng->UniformDouble(0.1, 5.0), vs));
  }
  return frags;
}

// Sizes on both sides of a 64-bit word boundary: Adjacent and the row
// iteration must equal brute-force vertex intersection.
TEST(OverlapGraphTest, BitRowsMatchBruteForceAcrossWordBoundaries) {
  Rng rng(64);
  for (int n : {1, 64, 65, 200}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::vector<WeightedFragment> frags =
        RandomFragments(&rng, n, n + 40);
    OverlapGraph g(frags);
    ASSERT_EQ(g.size(), n);
    int edges = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(g.weight(i), frags[i].weight);
      std::vector<int> want;
      for (int j = 0; j < n; ++j) {
        const bool overlap =
            j != i && ListOverlapGraph::Overlap(frags[i], frags[j]);
        EXPECT_EQ(g.Adjacent(i, j), overlap) << i << " vs " << j;
        if (overlap) want.push_back(j);
      }
      std::vector<int> got;
      g.ForEachNeighbor(i, [&got](int u) { got.push_back(u); });
      EXPECT_EQ(got, want) << "row " << i;
      edges += static_cast<int>(got.size());
    }
    if (n > 1) {
      EXPECT_GT(edges, 0);
    }
  }
}

// Greedy, EnhancedGreedy(2) and exact selections equal the adjacency-list
// solvers' on random fragment sets.
TEST(OverlapGraphTest, SelectionsMatchAdjacencyListReference) {
  Rng rng(2006);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = rng.UniformInt(1, trial < 40 ? 24 : 90);
    const std::vector<WeightedFragment> frags =
        RandomFragments(&rng, n, rng.UniformInt(4, 2 * n + 4));
    OverlapGraph g(frags);
    ListOverlapGraph reference(frags);
    EXPECT_EQ(GreedyMwis(g), ReferenceGreedy(reference));
    EXPECT_EQ(EnhancedGreedyMwis(g, 2), ReferenceEnhancedGreedy(reference, 2));
    if (n <= 24) {
      EXPECT_EQ(ExactMwis(g), ReferenceExact(reference));
    }
  }
}

TEST(SingleBestTest, PicksHeaviest) {
  std::vector<WeightedFragment> frags = {WF(1, {0}), WF(9, {1}), WF(4, {2})};
  OverlapGraph g(frags);
  EXPECT_EQ(SingleBestMwis(g), (std::vector<int>{1}));
}

// Properties on random instances: independence, greedy ratio >= 1/c,
// enhanced(k) >= greedy in the adversarial sense checked against exact.
class MwisPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MwisPropertyTest, InvariantsHold) {
  Rng rng(GetParam());
  int n = 4 + GetParam() % 12;
  std::vector<WeightedFragment> frags;
  for (int i = 0; i < n; ++i) {
    // Random small vertex sets over a universe of 12 vertices.
    std::vector<VertexId> vs;
    int k = rng.UniformInt(1, 3);
    for (int j = 0; j < k; ++j) vs.push_back(rng.UniformInt(0, 11));
    std::sort(vs.begin(), vs.end());
    vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
    frags.push_back(WF(rng.UniformDouble(0.1, 5.0), vs));
  }
  OverlapGraph g(frags);
  std::vector<int> greedy = GreedyMwis(g);
  std::vector<int> enhanced = EnhancedGreedyMwis(g, 2);
  std::vector<int> exact = ExactMwis(g);
  EXPECT_TRUE(g.IsIndependent(greedy));
  EXPECT_TRUE(g.IsIndependent(enhanced));
  EXPECT_TRUE(g.IsIndependent(exact));
  // Exact dominates both heuristics; every heuristic is nonempty when the
  // graph is.
  EXPECT_GE(g.TotalWeight(exact) + 1e-9, g.TotalWeight(greedy));
  EXPECT_GE(g.TotalWeight(exact) + 1e-9, g.TotalWeight(enhanced));
  if (g.size() > 0) {
    EXPECT_FALSE(greedy.empty());
    EXPECT_FALSE(exact.empty());
  }
  // Maximality of greedy: no vertex can be added.
  std::vector<bool> in_set(g.size(), false);
  for (int v : greedy) in_set[v] = true;
  for (int v = 0; v < g.size(); ++v) {
    if (in_set[v]) continue;
    bool adjacent = false;
    for (int s : greedy) {
      if (g.Adjacent(s, v)) {
        adjacent = true;
        break;
      }
    }
    EXPECT_TRUE(adjacent) << "greedy result not maximal";
  }
  // Theorem 2 ratio: w(greedy) >= w(exact) / c with c = |exact| as an
  // upper bound witness of the max independent set size is not exact (the
  // true c can exceed |exact|), so check the weaker, always-valid bound
  // with c = n.
  EXPECT_GE(g.TotalWeight(greedy) * g.size() + 1e-9, g.TotalWeight(exact));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwisPropertyTest, ::testing::Range(0, 30));

TEST(SelectivityTest, Definition5WithCutoff) {
  // n = 4, sigma = 2, lambda = 1; found distances {0, 1} -> two graphs at
  // cutoff 2 each: w = (0 + 1 + 2 + 2) / 4.
  EXPECT_DOUBLE_EQ(ComputeSelectivity({0, 1}, 4, 2, 1), 1.25);
}

TEST(SelectivityTest, LambdaCapsFoundDistances) {
  // lambda = 0.25 -> cutoff 0.5; distances {0, 1} cap to {0, 0.5}; misses
  // contribute 0.5: w = (0 + 0.5 + 0.5 + 0.5)/4.
  EXPECT_DOUBLE_EQ(ComputeSelectivity({0, 1}, 4, 2, 0.25), 0.375);
}

TEST(SelectivityTest, LambdaAboveOneScalesMissTerm) {
  EXPECT_DOUBLE_EQ(ComputeSelectivity({0, 1}, 4, 2, 2), (0 + 1 + 4 + 4) / 4.0);
}

TEST(SelectivityTest, AllGraphsContainFragmentAtZero) {
  EXPECT_DOUBLE_EQ(ComputeSelectivity({0, 0, 0}, 3, 2, 1), 0.0);
}

}  // namespace
}  // namespace pis
