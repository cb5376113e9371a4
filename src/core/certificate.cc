#include "core/certificate.h"

#include <algorithm>

#include "isomorphism/cost_search.h"

namespace pis {

GraphCertificate::GraphCertificate(const Graph& query,
                                   const DistanceSpec& spec)
    : edge_cost_(spec.type == DistanceType::kMutation
                     ? spec.edge_scores.MinMismatch()
                     : 0.0),
      vertex_cost_(spec.type == DistanceType::kMutation
                       ? spec.vertex_scores.MinMismatch()
                       : 0.0) {
  std::vector<Label> labels;
  for (EdgeId e = 0; e < query.NumEdges(); ++e) {
    labels.push_back(query.GetEdge(e).label);
  }
  edge_labels_ = CountLabels(std::move(labels));
  labels.clear();
  int max_degree = 0;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    labels.push_back(query.VertexLabel(v));
    max_degree = std::max(max_degree, query.Degree(v));
  }
  vertex_labels_ = CountLabels(std::move(labels));
  at_least_.assign(max_degree + 1, 0);
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    ++at_least_[query.Degree(v)];
  }
  for (int d = max_degree; d > 0; --d) at_least_[d - 1] += at_least_[d];
  degree_count_.resize(at_least_.size());
}

GraphCertificate::LabelCounts GraphCertificate::CountLabels(
    std::vector<Label> labels) {
  std::sort(labels.begin(), labels.end());
  LabelCounts out;
  out.total = static_cast<int>(labels.size());
  for (Label l : labels) {
    if (out.labels.empty() || out.labels.back() != l) {
      out.labels.push_back(l);
      out.counts.push_back(0);
    }
    ++out.counts.back();
  }
  return out;
}

template <typename LabelOf>
int GraphCertificate::Unmatched(const LabelCounts& query, int num_elements,
                                LabelOf label_of) {
  seen_.assign(query.labels.size(), 0);
  int unmatched = query.total;
  for (int i = 0; i < num_elements && unmatched > 0; ++i) {
    // A query holds a handful of distinct labels: a scan beats a search.
    const auto it =
        std::find(query.labels.begin(), query.labels.end(), label_of(i));
    if (it == query.labels.end()) continue;
    const size_t slot = it - query.labels.begin();
    if (seen_[slot] < query.counts[slot]) {
      ++seen_[slot];
      --unmatched;
    }
  }
  return unmatched;
}

double GraphCertificate::LowerBound(const Graph& graph) {
  // Degree dominance: count G's vertices by degree, capped at the query's
  // largest, then compare the running "degree >= d" counts from the top.
  std::fill(degree_count_.begin(), degree_count_.end(), 0);
  const int top = static_cast<int>(degree_count_.size()) - 1;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ++degree_count_[std::min(graph.Degree(v), top)];
  }
  int at_least = 0;
  for (int d = top; d >= 0; --d) {
    at_least += degree_count_[d];
    if (at_least < at_least_[d]) return kInfiniteDistance;
  }

  double bound = 0;
  if (edge_cost_ > 0) {
    const int unmatched = Unmatched(edge_labels_, graph.NumEdges(), [&](int e) {
      return graph.GetEdge(e).label;
    });
    if (unmatched > 0) bound += edge_cost_ * unmatched;
  }
  if (vertex_cost_ > 0) {
    const int unmatched =
        Unmatched(vertex_labels_, graph.NumVertices(),
                  [&](int v) { return graph.VertexLabel(v); });
    if (unmatched > 0) bound += vertex_cost_ * unmatched;
  }
  return bound;
}

}  // namespace pis
