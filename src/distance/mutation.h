// Mutation Distance (MD): sum of mutation-matrix scores over superimposed
// vertex and edge label pairs (paper §2).
#ifndef PIS_DISTANCE_MUTATION_H_
#define PIS_DISTANCE_MUTATION_H_

#include "distance/score_matrix.h"
#include "graph/graph.h"
#include "isomorphism/cost_search.h"

namespace pis {

/// \brief MD cost model: pluggable vertex and edge score matrices.
///
/// The paper's evaluation uses `EdgeMutationModel()`: unit edge scores,
/// vertex labels ignored.
class MutationCostModel : public SuperimposeCostModel {
 public:
  MutationCostModel(ScoreMatrix vertex_scores, ScoreMatrix edge_scores)
      : vertex_scores_(std::move(vertex_scores)),
        edge_scores_(std::move(edge_scores)) {}

  double VertexCost(const Graph& q, VertexId qv, const Graph& g,
                    VertexId gv) const override {
    return vertex_scores_.Cost(q.VertexLabel(qv), g.VertexLabel(gv));
  }
  double EdgeCost(const Graph& q, EdgeId qe, const Graph& g,
                  EdgeId ge) const override {
    return edge_scores_.Cost(q.GetEdge(qe).label, g.GetEdge(ge).label);
  }

  const ScoreMatrix& vertex_scores() const { return vertex_scores_; }
  const ScoreMatrix& edge_scores() const { return edge_scores_; }

 private:
  ScoreMatrix vertex_scores_;
  ScoreMatrix edge_scores_;
};

/// The evaluation's distance: count of mismatched edge labels, vertex
/// labels free.
MutationCostModel EdgeMutationModel();

/// Full MD with unit scores on both vertices and edges.
MutationCostModel UnitMutationModel();

}  // namespace pis

#endif  // PIS_DISTANCE_MUTATION_H_
