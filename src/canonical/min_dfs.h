// Minimum DFS code canonicalization.
//
// The minimum DFS code of a connected graph is a canonical form: two graphs
// are isomorphic (with matching labels when `use_labels`) iff their minimum
// DFS codes are equal. The level-synchronous search here also yields every
// vertex/edge ordering that realizes the minimum code — one per
// automorphism — which the fragment index uses to insert all
// automorphism-induced label sequences (paper §4: with every sequence of a
// database fragment indexed, the one canonical sequence of a query fragment
// finds the minimum superimposed distance).
#ifndef PIS_CANONICAL_MIN_DFS_H_
#define PIS_CANONICAL_MIN_DFS_H_

#include <vector>

#include "canonical/dfs_code.h"
#include "graph/graph.h"
#include "util/status.h"

namespace pis {

/// One realization of the minimum DFS code: original vertex ids in DFS-index
/// order and original edge ids in code-position order.
struct CanonicalEmbedding {
  std::vector<VertexId> vertex_order;
  std::vector<EdgeId> edge_order;
};

/// The canonical form of a connected graph.
struct CanonicalForm {
  DfsCode code;
  /// All realizations of `code`; size equals the automorphism-group order of
  /// the (labeled or skeleton) graph. Never empty for a valid input.
  std::vector<CanonicalEmbedding> embeddings;

  /// Hash key including the vertex count (distinguishes the single-vertex
  /// graph from the empty one).
  std::string Key() const;
};

struct CanonicalOptions {
  /// Use vertex/edge labels in the code. When false the skeleton is
  /// canonicalized (labels treated as kNoLabel) — this is the
  /// structural-equivalence-class key of the paper (Definition 4).
  bool use_labels = true;
  /// Stop after the first embedding (cheaper when automorphisms are not
  /// needed, e.g. canonicalizing a query fragment or a mining pattern).
  bool first_embedding_only = false;
};

/// Computes the canonical form. Requires a connected graph with at least one
/// vertex; returns InvalidArgument otherwise.
Result<CanonicalForm> MinDfsCode(const Graph& g, const CanonicalOptions& options = {});

}  // namespace pis

#endif  // PIS_CANONICAL_MIN_DFS_H_
