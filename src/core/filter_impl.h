// The batched-search driver and enumeration memo shared by PisEngine and
// the cluster router (server/cluster_engine.h). The filter itself lives in
// core/shard_filter.h.
//
// Internal header: not exported through pis.h.
#ifndef PIS_CORE_FILTER_IMPL_H_
#define PIS_CORE_FILTER_IMPL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pis.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis::internal {

/// Per-batch memo of query-fragment enumeration, shared by the workers of
/// one SearchBatch call (ROADMAP "duplicate queries" lever). Keyed by the
/// canonical minimum DFS code of the query COMBINED with its exact
/// serialized encoding: a hit strictly isomorphism-keyed on the code alone
/// would let a renumbered twin inherit a foreign fragment list, permuting
/// fragment order and vertex sets — answers would stay exact (verification
/// runs on the real query), but selectivity-tie partition choices could
/// drift and the batch would no longer equal a sequential Search loop
/// counter for counter. With the composite key, identical repeats of EVERY
/// distinct encoding hit (including repeats of each renumbered twin), and
/// distinct encodings never share an entry. The mutex guards only the map;
/// entries are immutable shared_ptrs copied out before use, so workers
/// never hold the lock across fragment-vector copies.
struct QueryEnumCache {
  Mutex mu;
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<QueryFragment>>>
      by_key PIS_GUARDED_BY(mu);
};

/// The SearchBatch driver: fans `run_query` over 0..num_queries-1 with
/// ParallelFor, isolates per-query exceptions as Internal errors, and
/// aggregates stats over the successful queries. The caller resolves
/// `num_threads` (> 0) and applies any verify-thread clamping before
/// constructing `run_query`.
BatchSearchResult RunSearchBatch(
    size_t num_queries, int num_threads,
    const std::function<Result<SearchResult>(size_t)>& run_query);

}  // namespace pis::internal

#endif  // PIS_CORE_FILTER_IMPL_H_
