// Linear Mutation Distance (LD): sum of |w - w'| over superimposed numeric
// vertex/edge weights (paper §2). Suited to geometric attributes such as
// bond lengths; indexed with an R-tree.
#ifndef PIS_DISTANCE_LINEAR_H_
#define PIS_DISTANCE_LINEAR_H_

#include "graph/graph.h"
#include "isomorphism/cost_search.h"

namespace pis {

/// \brief LD cost model. Either weight dimension can be disabled.
class LinearCostModel : public SuperimposeCostModel {
 public:
  LinearCostModel(bool use_vertex_weights, bool use_edge_weights)
      : use_vertex_weights_(use_vertex_weights),
        use_edge_weights_(use_edge_weights) {}

  double VertexCost(const Graph& q, VertexId qv, const Graph& g,
                    VertexId gv) const override {
    if (!use_vertex_weights_) return 0.0;
    double d = q.VertexWeight(qv) - g.VertexWeight(gv);
    return d < 0 ? -d : d;
  }
  double EdgeCost(const Graph& q, EdgeId qe, const Graph& g,
                  EdgeId ge) const override {
    if (!use_edge_weights_) return 0.0;
    double d = q.GetEdge(qe).weight - g.GetEdge(ge).weight;
    return d < 0 ? -d : d;
  }

  bool use_vertex_weights() const { return use_vertex_weights_; }
  bool use_edge_weights() const { return use_edge_weights_; }

 private:
  bool use_vertex_weights_;
  bool use_edge_weights_;
};

/// LD over edge weights only (the R-tree example of the paper, §4 Ex. 3).
LinearCostModel EdgeLinearModel();

}  // namespace pis

#endif  // PIS_DISTANCE_LINEAR_H_
