// VF2-style subgraph isomorphism (Cordella et al.), adapted to undirected
// graphs with non-induced (monomorphism) semantics. Matching considers the
// structure only, as the paper's subgraph isomorphism does (§2): labels and
// weights are never read.
#ifndef PIS_ISOMORPHISM_VF2_H_
#define PIS_ISOMORPHISM_VF2_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/graph.h"

namespace pis {

/// Receives one embedding: `mapping[qv]` is the target vertex for pattern
/// vertex `qv`. Return false to stop enumeration.
using EmbeddingCallback = std::function<bool(const std::vector<VertexId>&)>;

/// \brief Enumerates embeddings of a pattern graph in a target graph.
///
/// The matcher orders pattern vertices once (connectivity-first, high degree
/// first) and then backtracks over candidate target vertices with degree and
/// adjacency feasibility checks. Instances are single-shot cheap objects;
/// construct per (pattern, target) pair.
class Vf2Matcher {
 public:
  Vf2Matcher(const Graph& pattern, const Graph& target);

  /// True if at least one embedding exists; fills `mapping` (pattern vertex
  /// -> target vertex) if non-null.
  bool FindFirst(std::vector<VertexId>* mapping = nullptr);

  /// Invokes `cb` for every embedding until exhaustion or the callback
  /// returns false. Returns the number of embeddings visited.
  size_t EnumerateAll(const EmbeddingCallback& cb);

 private:
  bool Feasible(VertexId pv, VertexId tv) const;
  bool Recurse(int depth, const EmbeddingCallback& cb, size_t* count);

  const Graph& pattern_;
  const Graph& target_;
  std::vector<VertexId> order_;        // pattern matching order
  std::vector<int> order_parent_;      // index into order_ of a mapped neighbor, or -1
  std::vector<VertexId> core_;         // pattern vertex -> target vertex
  std::vector<bool> target_used_;      // target vertex already mapped
};

/// True iff `pattern` is structurally subgraph-isomorphic to `target` (the
/// paper's `⊆`). Label-preserving containment (`⊑`) is superimposed
/// distance 0 under unit label costs:
/// WithinSuperimposedDistance(pattern, target, UnitMutationModel(), 0).
bool IsSubgraph(const Graph& pattern, const Graph& target);

/// True iff the two graphs' skeletons are isomorphic. With equal vertex and
/// edge counts, a monomorphism is an isomorphism.
bool AreIsomorphic(const Graph& a, const Graph& b);

/// Enumerates all automorphisms of `g`'s skeleton. The identity is always
/// included.
std::vector<std::vector<VertexId>> EnumerateAutomorphisms(const Graph& g);

}  // namespace pis

#endif  // PIS_ISOMORPHISM_VF2_H_
