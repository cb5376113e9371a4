#include "distance/superimposed.h"

#include <algorithm>

#include "isomorphism/vf2.h"

namespace pis {

double MinSuperimposedDistance(const Graph& query, const Graph& target,
                               const SuperimposeCostModel& model, double bound) {
  return MinCostEmbedding(query, target, model, bound).distance;
}

bool WithinSuperimposedDistance(const Graph& query, const Graph& target,
                                const SuperimposeCostModel& model, double sigma) {
  return HasEmbeddingWithin(query, target, model, sigma);
}

double IsomorphicDistance(const Graph& a, const Graph& b,
                          const SuperimposeCostModel& model) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return kInfiniteDistance;
  }
  return MinSuperimposedDistance(a, b, model);
}

double MinSuperimposedDistanceBruteForce(const Graph& query, const Graph& target,
                                         const SuperimposeCostModel& model) {
  double best = kInfiniteDistance;
  Vf2Matcher matcher(query, target);
  matcher.EnumerateAll([&](const std::vector<VertexId>& mapping) {
    double cost = 0;
    for (VertexId v = 0; v < query.NumVertices(); ++v) {
      cost += model.VertexCost(query, v, target, mapping[v]);
    }
    for (EdgeId e = 0; e < query.NumEdges(); ++e) {
      const Edge& edge = query.GetEdge(e);
      EdgeId te = target.FindEdge(mapping[edge.u], mapping[edge.v]);
      cost += model.EdgeCost(query, e, target, te);
    }
    best = std::min(best, cost);
    return true;
  });
  return best;
}

}  // namespace pis
