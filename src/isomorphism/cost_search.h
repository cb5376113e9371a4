// Cost-bounded superposition search: a VF2-style backtracker whose partial
// state carries the accumulated superimposed-distance cost and prunes at a
// bound. Computes the *minimum superimposed distance* (Definition 1 of the
// paper) without materializing every embedding.
#ifndef PIS_ISOMORPHISM_COST_SEARCH_H_
#define PIS_ISOMORPHISM_COST_SEARCH_H_

#include <limits>
#include <vector>

#include "graph/graph.h"

namespace pis {

inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Scores one superimposed vertex pair / edge pair. Implemented by the
/// mutation and linear distance models in src/distance.
class SuperimposeCostModel {
 public:
  virtual ~SuperimposeCostModel() = default;

  /// Cost of mapping query vertex `qv` onto target vertex `gv`.
  virtual double VertexCost(const Graph& q, VertexId qv, const Graph& g,
                            VertexId gv) const = 0;
  /// Cost of mapping query edge `qe` onto target edge `ge`.
  virtual double EdgeCost(const Graph& q, EdgeId qe, const Graph& g,
                          EdgeId ge) const = 0;
};

struct CostSearchResult {
  /// Minimum superimposed distance over all structure embeddings of the
  /// query in the target that stay within `bound`; kInfiniteDistance when no
  /// embedding fits the bound (including the no-embedding case).
  double distance = kInfiniteDistance;
  /// A realizing mapping (query vertex -> target vertex); empty when
  /// distance is infinite.
  std::vector<VertexId> mapping;
  /// Search-tree nodes expanded (for the ablation benchmarks).
  size_t nodes_expanded = 0;
};

/// Finds min_{Q' ⊆ G, Q' ≅ Q} cost(Q, Q') with branch-and-bound pruning at
/// `bound` (inclusive: embeddings of cost exactly `bound` are reported).
/// Pass kInfiniteDistance for an exact unbounded minimum.
CostSearchResult MinCostEmbedding(const Graph& query, const Graph& target,
                                  const SuperimposeCostModel& model, double bound);

/// Whether some embedding of the query in the target costs at most `bound`:
/// MinCostEmbedding's search, stopped at the first such embedding rather
/// than minimised.
bool HasEmbeddingWithin(const Graph& query, const Graph& target,
                        const SuperimposeCostModel& model, double bound);

}  // namespace pis

#endif  // PIS_ISOMORPHISM_COST_SEARCH_H_
