// Partition selection: the overlapping-relation graph and maximum weighted
// independent set heuristics of paper §5 (Algorithm 1, EnhancedGreedy(k),
// plus an exact solver for tests and ablations).
#ifndef PIS_CORE_PARTITION_H_
#define PIS_CORE_PARTITION_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "util/status.h"

namespace pis {

/// A candidate partition member: an indexed query fragment with its
/// selectivity weight and the query vertices it covers.
struct WeightedFragment {
  double weight = 0;
  /// Sorted query vertex ids covered by the fragment. Two fragments overlap
  /// when these intersect (Definition 3 requires vertex-disjointness).
  std::vector<VertexId> vertices;
};

/// \brief The overlapping-relation graph Q̃ (paper Figure 6), as an
/// adjacency bit matrix: row v holds one bit per vertex, set for v's
/// neighbours. A q16 query keeps ~100 fragments that mostly overlap, so a
/// bit per pair stays a few KB where a list entry per edge would not.
class OverlapGraph {
 public:
  explicit OverlapGraph(const std::vector<WeightedFragment>& fragments);

  int size() const { return static_cast<int>(weights_.size()); }
  double weight(int v) const { return weights_[v]; }
  bool Adjacent(int a, int b) const {
    return ((rows_[Word(a, b)] >> (b % 64)) & 1) != 0;
  }
  /// Calls `fn(u)` for every neighbour u of `v`, in ascending order.
  template <typename Fn>
  void ForEachNeighbor(int v, Fn&& fn) const {
    const uint64_t* row = &rows_[Word(v, 0)];
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
  }

  /// True iff `set` is an independent set.
  bool IsIndependent(const std::vector<int>& set) const;
  double TotalWeight(const std::vector<int>& set) const;

 private:
  /// Index of the word of row `v` that holds column `u`.
  size_t Word(int v, int u) const {
    return static_cast<size_t>(v) * words_ + static_cast<size_t>(u) / 64;
  }

  std::vector<double> weights_;
  size_t words_ = 0;  // words per row: ceil(size() / 64)
  std::vector<uint64_t> rows_;
};

/// Algorithm 1 (Greedy): O(cn) with optimality ratio 1/c.
std::vector<int> GreedyMwis(const OverlapGraph& graph);

/// EnhancedGreedy(k): picks a maximum-weight independent k-set per round;
/// optimality ratio c/k in O(c k n^k). k >= 1 (k = 1 equals Greedy).
std::vector<int> EnhancedGreedyMwis(const OverlapGraph& graph, int k);

/// Exact MWIS by branch and bound. Exponential: intended for the small
/// overlap graphs of tests/ablations (size <= ~40 recommended).
std::vector<int> ExactMwis(const OverlapGraph& graph);

/// Single heaviest vertex (ablation baseline: "no partition, best fragment
/// only").
std::vector<int> SingleBestMwis(const OverlapGraph& graph);

/// Dispatches on the configured algorithm.
std::vector<int> SelectPartition(const OverlapGraph& graph,
                                 PartitionAlgorithm algorithm, int enhanced_k);

}  // namespace pis

#endif  // PIS_CORE_PARTITION_H_
