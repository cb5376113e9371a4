// Reference implementations of the index's query-side computations, kept
// out of the library so the fast paths can be checked against them:
// resolving one fragment graph by its own minimum DFS code (the oracle for
// the classification IndexScan reads from its shared SkeletonTable), the
// sequence layout written from the distance spec itself, and the
// selectivity of Definition 5 as a sorted sum. Header-only; include from
// tests only.
#ifndef PIS_TESTS_INDEX_REFERENCE_H_
#define PIS_TESTS_INDEX_REFERENCE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "canonical/min_dfs.h"
#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "index/fragment_index.h"
#include "util/logging.h"
#include "util/status.h"

namespace pis::testing {

/// The sequence layout FragmentIndex documents, recomputed from the fragment
/// graph itself: vertex labels when vertex scores can cost, then edge
/// labels; for linear distance the configured vertex, then edge weights
/// (one 0 when neither is).
inline void ReferenceVectors(const DistanceSpec& spec, const Graph& fragment,
                             const CanonicalEmbedding& emb,
                             std::vector<Label>* labels,
                             std::vector<double>* weights) {
  labels->clear();
  weights->clear();
  if (!spec.vertex_scores.IsZero()) {
    for (VertexId v : emb.vertex_order) {
      labels->push_back(fragment.VertexLabel(v));
    }
  }
  for (EdgeId e : emb.edge_order) labels->push_back(fragment.GetEdge(e).label);
  if (spec.type != DistanceType::kLinear) return;
  if (spec.use_vertex_weights) {
    for (VertexId v : emb.vertex_order) {
      weights->push_back(fragment.VertexWeight(v));
    }
  }
  if (spec.use_edge_weights) {
    for (EdgeId e : emb.edge_order) {
      weights->push_back(fragment.GetEdge(e).weight);
    }
  }
  if (weights->empty()) weights->push_back(0.0);
}

/// Resolves a fragment graph against `index` one-off: the class whose key
/// is its skeleton's canonical key, and the sequence of the canonical
/// code's first realization. NotFound when the skeleton is not an indexed
/// class.
inline Result<PreparedFragment> PrepareFragment(const FragmentIndex& index,
                                                const Graph& fragment) {
  PIS_ASSIGN_OR_RETURN(CanonicalForm form,
                       MinDfsCode(fragment, {.first_embedding_only = true}));
  const std::string key = form.Key();
  for (int c = 0; c < index.num_classes(); ++c) {
    if (index.class_at(c).key() != key) continue;
    PreparedFragment prepared;
    prepared.class_id = c;
    prepared.num_edges = fragment.NumEdges();
    ReferenceVectors(index.options().spec, fragment, form.embeddings[0],
                     &prepared.labels, &prepared.weights);
    return prepared;
  }
  return Status::NotFound("fragment skeleton is not an indexed class");
}

/// True if the fragment's skeleton is an indexed class.
inline bool HasClass(const FragmentIndex& index, const Graph& fragment) {
  return PrepareFragment(index, fragment).ok();
}

/// PrepareFragment, then the index's range query.
inline Status RangeQuery(const FragmentIndex& index, const Graph& fragment,
                         double sigma, const ClassMatchCallback& cb) {
  PIS_ASSIGN_OR_RETURN(PreparedFragment prepared,
                       PrepareFragment(index, fragment));
  return index.RangeQuery(prepared, sigma, cb);
}

/// w(g) = [ Σ_{G ∈ T} min(d(g,G), λσ) + (n - |T|) · λσ ] / n
/// (paper Definition 5, the cutoff generalized to λσ for Figure 11), where
/// `found_distances` are the per-graph minimum distances of the range query
/// result T (each <= σ) and `db_size` is n. The sum runs over a sorted
/// copy, so equal distance multisets give bit-identical weights in any
/// order: the reference for core/shard_filter.h's HistogramSelectivity.
inline double ComputeSelectivity(const std::vector<double>& found_distances,
                                 int db_size, double sigma, double lambda) {
  if (db_size <= 0) return 0.0;
  PIS_DCHECK(static_cast<int>(found_distances.size()) <= db_size);
  const double cutoff = lambda * sigma;
  std::vector<double> sorted = found_distances;
  std::sort(sorted.begin(), sorted.end());
  double total = 0;
  for (double d : sorted) total += std::min(d, cutoff);
  total += static_cast<double>(db_size - sorted.size()) * cutoff;
  return total / static_cast<double>(db_size);
}

}  // namespace pis::testing

#endif  // PIS_TESTS_INDEX_REFERENCE_H_
