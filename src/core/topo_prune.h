// topoPrune baseline (paper §2): prune graphs that do not contain the query
// *structure* using the fragment index's per-class containment lists, then
// verify the survivors. Its candidate count is the paper's Yt.
#ifndef PIS_CORE_TOPO_PRUNE_H_
#define PIS_CORE_TOPO_PRUNE_H_

#include "core/naive_search.h"
#include "core/options.h"
#include "index/sharded_index.h"

namespace pis {

/// \brief Structure-only pruning engine.
class TopoPruneEngine {
 public:
  /// Both pointers must outlive the engine; the index must have been built
  /// over exactly this database.
  TopoPruneEngine(const GraphDatabase* db, const ShardedFragmentIndex* index);

  /// Filtering only: the live graphs containing (a fragment of the class
  /// of) every indexed query fragment, ascending. Distance-free, and the
  /// same for any shard count. Runs ShardContainment (core/shard_filter.h)
  /// on every shard, so `range_queries` counts one containment intersection
  /// per (distinct class, shard): distinct classes x num_shards.
  Result<std::vector<int>> Filter(const Graph& query, QueryStats* stats) const;

  /// Filter + verification at `sigma` under the index's distance spec.
  Result<SearchResult> Search(const Graph& query, double sigma) const;

 private:
  const GraphDatabase* db_;
  const ShardedFragmentIndex* index_;
};

}  // namespace pis

#endif  // PIS_CORE_TOPO_PRUNE_H_
