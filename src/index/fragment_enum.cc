#include "index/fragment_enum.h"

namespace pis {

size_t EnumerateConnectedEdgeSubgraphs(const Graph& g,
                                       const FragmentEnumOptions& options,
                                       const EdgeSubsetCallback& cb) {
  return ForEachConnectedEdgeSubset(g, options, cb);
}

size_t CountConnectedEdgeSubgraphs(const Graph& g,
                                   const FragmentEnumOptions& options) {
  return ForEachConnectedEdgeSubset(
      g, options, [](const std::vector<EdgeId>&) { return true; });
}

}  // namespace pis
