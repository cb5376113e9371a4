#include "isomorphism/cost_search.h"

#include <algorithm>

namespace pis {

namespace {

// Backtracking search sharing VF2's connectivity-first order, extended with
// cost accounting. `best` shrinks as better embeddings are found, so the
// search degenerates to plain VF2 when the model is all-zero. With
// `first_only` it stops at the first embedding within the bound.
class CostSearcher {
 public:
  CostSearcher(const Graph& query, const Graph& target,
               const SuperimposeCostModel& model, double bound,
               bool first_only = false)
      : query_(query),
        target_(target),
        model_(model),
        best_(bound),
        first_only_(first_only) {
    BuildOrder();
    core_.assign(query_.NumVertices(), kInvalidVertex);
    used_.assign(target_.NumVertices(), false);
  }

  CostSearchResult Run() {
    CostSearchResult result;
    if (query_.NumVertices() == 0) {
      result.distance = 0;
      return result;
    }
    if (query_.NumVertices() > target_.NumVertices() ||
        query_.NumEdges() > target_.NumEdges()) {
      return result;
    }
    Recurse(0, 0.0);
    result.distance = found_ ? best_ : kInfiniteDistance;
    result.mapping = std::move(best_mapping_);
    result.nodes_expanded = nodes_;
    return result;
  }

 private:
  void BuildOrder() {
    int n = query_.NumVertices();
    order_.reserve(n);
    std::vector<bool> placed(n, false);
    std::vector<int> placed_neighbors(n, 0);
    for (int step = 0; step < n; ++step) {
      VertexId best = kInvalidVertex;
      for (VertexId v = 0; v < n; ++v) {
        if (placed[v]) continue;
        if (best == kInvalidVertex ||
            placed_neighbors[v] > placed_neighbors[best] ||
            (placed_neighbors[v] == placed_neighbors[best] &&
             query_.Degree(v) > query_.Degree(best))) {
          best = v;
        }
      }
      placed[best] = true;
      order_.push_back(best);
      for (EdgeId e : query_.IncidentEdges(best)) {
        placed_neighbors[query_.GetEdge(e).Other(best)]++;
      }
    }
    order_parent_.assign(n, -1);
    std::vector<int> pos(n, -1);
    for (size_t i = 0; i < order_.size(); ++i) pos[order_[i]] = static_cast<int>(i);
    for (size_t i = 0; i < order_.size(); ++i) {
      for (EdgeId e : query_.IncidentEdges(order_[i])) {
        VertexId nb = query_.GetEdge(e).Other(order_[i]);
        if (pos[nb] < static_cast<int>(i)) {
          order_parent_[i] = pos[nb];
          break;
        }
      }
    }
  }

  // Cost of extending the mapping with qv -> tv, or infinity if infeasible.
  // Recurse drew tv along target edge `anchor_edge` from the image of query
  // vertex `anchor` (kInvalidVertex for an unanchored candidate), so that
  // pair's edge needs no lookup.
  double ExtensionCost(VertexId qv, VertexId tv, VertexId anchor,
                       EdgeId anchor_edge) const {
    if (used_[tv] || target_.Degree(tv) < query_.Degree(qv)) {
      return kInfiniteDistance;
    }
    double cost = model_.VertexCost(query_, qv, target_, tv);
    for (EdgeId qe : query_.IncidentEdges(qv)) {
      VertexId nb = query_.GetEdge(qe).Other(qv);
      VertexId mapped = core_[nb];
      if (mapped == kInvalidVertex) continue;
      EdgeId te = nb == anchor ? anchor_edge : target_.FindEdge(tv, mapped);
      if (te == kInvalidEdge) return kInfiniteDistance;
      cost += model_.EdgeCost(query_, qe, target_, te);
    }
    return cost;
  }

  void TryExtend(int depth, double cost, VertexId qv, VertexId tv,
                 VertexId anchor = kInvalidVertex,
                 EdgeId anchor_edge = kInvalidEdge) {
    double delta = ExtensionCost(qv, tv, anchor, anchor_edge);
    if (delta == kInfiniteDistance) return;
    double next_cost = cost + delta;
    // Prune strictly above the bound; equality is admissible so σ-exact
    // answers are kept. When a full embedding at `best` already exists,
    // further equal-cost embeddings are redundant, hence the found_ check.
    if (next_cost > best_ || (found_ && next_cost >= best_)) return;
    core_[qv] = tv;
    used_[tv] = true;
    Recurse(depth + 1, next_cost);
    core_[qv] = kInvalidVertex;
    used_[tv] = false;
  }

  void Recurse(int depth, double cost) {
    ++nodes_;
    if (depth == static_cast<int>(order_.size())) {
      best_ = cost;
      found_ = true;
      best_mapping_ = core_;
      stopped_ = first_only_;
      return;
    }
    VertexId qv = order_[depth];
    if (order_parent_[depth] >= 0) {
      VertexId anchor = order_[order_parent_[depth]];
      VertexId anchor_image = core_[anchor];
      for (EdgeId e : target_.IncidentEdges(anchor_image)) {
        TryExtend(depth, cost, qv, target_.GetEdge(e).Other(anchor_image),
                  anchor, e);
        if (stopped_) return;
      }
    } else {
      for (VertexId tv = 0; tv < target_.NumVertices() && !stopped_; ++tv) {
        TryExtend(depth, cost, qv, tv);
      }
    }
  }

  const Graph& query_;
  const Graph& target_;
  const SuperimposeCostModel& model_;
  double best_;
  const bool first_only_;
  bool found_ = false;
  bool stopped_ = false;
  std::vector<VertexId> order_;
  std::vector<int> order_parent_;
  std::vector<VertexId> core_;
  std::vector<bool> used_;
  std::vector<VertexId> best_mapping_;
  size_t nodes_ = 0;
};

}  // namespace

CostSearchResult MinCostEmbedding(const Graph& query, const Graph& target,
                                  const SuperimposeCostModel& model, double bound) {
  CostSearcher searcher(query, target, model, bound);
  return searcher.Run();
}

bool HasEmbeddingWithin(const Graph& query, const Graph& target,
                        const SuperimposeCostModel& model, double bound) {
  CostSearcher searcher(query, target, model, bound, /*first_only=*/true);
  return searcher.Run().distance <= bound;
}

}  // namespace pis
