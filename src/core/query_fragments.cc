#include "core/query_fragments.h"

#include <algorithm>

namespace pis {

Result<std::vector<QueryFragment>> EnumerateIndexedQueryFragments(
    const FragmentIndex& index, const Graph& query, size_t max_fragments) {
  std::vector<QueryFragment> fragments;
  // One scan for the whole query, in front of the index's skeleton table:
  // its subsets take a few dozen one-edge steps, which earlier queries and
  // the build have canonicalized already. Any one automorphic sequence of a
  // query fragment finds the minimum distance, since the index holds every
  // automorphic sequence of each database fragment.
  IndexScan scan(index);
  scan.Run(query, [&](const SkeletonSubset& subset, int class_id) {
    if (class_id < 0) return true;
    QueryFragment qf;
    qf.prepared.class_id = class_id;
    qf.prepared.num_edges = static_cast<int>(subset.edges.size());
    scan.AppendVectors(query, subset, scan.Automorphisms(subset.skeleton)[0],
                       &qf.prepared.labels, &qf.prepared.weights);
    qf.vertices.assign(subset.vertices.begin(), subset.vertices.end());
    std::sort(qf.vertices.begin(), qf.vertices.end());
    fragments.push_back(std::move(qf));
    return true;
  });
  if (max_fragments > 0 && fragments.size() > max_fragments) {
    // Keep the largest fragments: they carry the pruning power.
    std::stable_sort(fragments.begin(), fragments.end(),
                     [](const QueryFragment& a, const QueryFragment& b) {
                       return a.prepared.num_edges > b.prepared.num_edges;
                     });
    fragments.resize(max_fragments);
  }
  return fragments;
}

}  // namespace pis
