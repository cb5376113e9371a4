#include "core/query_fragments.h"

#include <algorithm>

#include "index/fragment_enum.h"

namespace pis {

Result<std::vector<QueryFragment>> EnumerateIndexedQueryFragments(
    const FragmentIndex& index, const Graph& query, size_t max_fragments) {
  FragmentEnumOptions enum_opts;
  enum_opts.min_edges = index.options().min_fragment_edges;
  enum_opts.max_edges = index.options().max_fragment_edges;
  std::vector<QueryFragment> fragments;
  Status failure = Status::OK();
  // One memo for the whole query, in front of the index's skeleton cache:
  // its subsets share a few dozen local edge patterns, which earlier
  // queries and the build have canonicalized already. The first embedding
  // is the one Prepare would pick, since MinDfsCode's first_embedding_only
  // only truncates its realization list.
  SkeletonMemo memo(index);
  ForEachConnectedEdgeSubset(query, enum_opts,
                             [&](const std::vector<EdgeId>& subset) {
    Result<const SkeletonClass*> cls = memo.Classify(query, subset);
    if (!cls.ok()) {
      failure = cls.status();
      return false;
    }
    if (cls.value()->class_id < 0) return true;
    QueryFragment qf;
    qf.prepared.class_id = cls.value()->class_id;
    qf.prepared.num_edges = static_cast<int>(subset.size());
    memo.Vectors(query, subset, cls.value()->embeddings.front(),
                 &qf.prepared.labels, &qf.prepared.weights);
    qf.vertices = memo.local_to_host();
    std::sort(qf.vertices.begin(), qf.vertices.end());
    fragments.push_back(std::move(qf));
    return true;
  });
  PIS_RETURN_NOT_OK(failure);
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
