// Graph-local certificates: lower bounds on the superimposed distance
// d(Q, G) that read only the query and G itself, never the index. Pass 2
// (ShardRefine, core/shard_filter.h) applies them to every graph the
// partition bound (Eq. 3) kept, so a graph stays a candidate only while
// every lower bound stays within σ.
#ifndef PIS_CORE_CERTIFICATE_H_
#define PIS_CORE_CERTIFICATE_H_

#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"

namespace pis {

/// \brief Necessary conditions of an embedding of one query, checked
/// against one graph at a time.
///
/// Any superposition maps Q's vertices injectively into G and each query
/// edge onto a distinct edge of G. Two bounds follow:
///
///  - Label multiset (mutation specs). At most
///    m_E = Σ_l min(cnt_Q(l), cnt_G(l)) query edges can land on an edge of
///    their own label, and every other one costs at least the edge
///    matrix's MinMismatch(); the same holds for vertices. So
///    d(Q, G) >= c_e · (|E(Q)| − m_E) + c_v · (|V(Q)| − m_V).
///    A zero c (the vertex matrix of EdgeMutation, a zero-cost override)
///    makes its term 0; for the linear distance both terms are 0.
///  - Degree dominance (every spec). deg_G(f(u)) >= deg_Q(u), so for every
///    d, G holds at least as many vertices of degree >= d as Q does. A
///    graph that fails cannot host the query at all.
class GraphCertificate {
 public:
  GraphCertificate(const Graph& query, const DistanceSpec& spec);

  /// The larger of the two bounds on d(query, graph): kInfiniteDistance
  /// when `graph`'s degrees cannot host the query, else the label-multiset
  /// bound. Reuses scratch arrays, so one certificate serves one thread.
  double LowerBound(const Graph& graph);

 private:
  /// A query's label multiset: distinct labels, their counts and the
  /// counts' sum.
  struct LabelCounts {
    std::vector<Label> labels;
    std::vector<int> counts;
    int total = 0;
  };
  static LabelCounts CountLabels(std::vector<Label> labels);

  /// query.total − Σ_l min(cnt_Q(l), cnt_G(l)) over G's `num_elements`
  /// vertices or edges, `label_of(i)` giving the label of element i: the
  /// query elements no element of G can match. Stops at the first G
  /// element that leaves none.
  template <typename LabelOf>
  int Unmatched(const LabelCounts& query, int num_elements, LabelOf label_of);

  double edge_cost_;
  double vertex_cost_;
  LabelCounts edge_labels_;
  LabelCounts vertex_labels_;
  /// at_least_[d]: query vertices of degree >= d, d = 0..max query degree.
  std::vector<int> at_least_;
  // Scratch for LowerBound.
  std::vector<int> degree_count_;
  std::vector<int> seen_;
};

}  // namespace pis

#endif  // PIS_CORE_CERTIFICATE_H_
