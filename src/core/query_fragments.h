// Enumeration of the indexed fragments of a query graph (Algorithm 2 lines
// 3-4), shared by the PIS engine and the topoPrune baseline.
#ifndef PIS_CORE_QUERY_FRAGMENTS_H_
#define PIS_CORE_QUERY_FRAGMENTS_H_

#include <vector>

#include "graph/graph.h"
#include "index/fragment_index.h"
#include "util/status.h"

namespace pis {

/// One indexed fragment of the query.
struct QueryFragment {
  PreparedFragment prepared;
  /// Sorted query vertex ids covered by the fragment (for the
  /// overlapping-relation graph).
  std::vector<VertexId> vertices;
};

/// Enumerates every connected edge subset of `query` (within the index's
/// fragment size bounds) whose skeleton is an indexed class.
Result<std::vector<QueryFragment>> EnumerateIndexedQueryFragments(
    const FragmentIndex& index, const Graph& query);

}  // namespace pis

#endif  // PIS_CORE_QUERY_FRAGMENTS_H_
