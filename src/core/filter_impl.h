// The batched-search driver shared by PisEngine and the cluster router
// (server/cluster_engine.h). The filter itself lives in core/shard_filter.h.
//
// Internal header: not exported through pis.h.
#ifndef PIS_CORE_FILTER_IMPL_H_
#define PIS_CORE_FILTER_IMPL_H_

#include <cstddef>
#include <functional>

#include "core/pis.h"
#include "util/status.h"

namespace pis::internal {

/// The SearchBatch driver: fans `run_query` over 0..num_queries-1 with
/// ParallelFor, isolates per-query exceptions as Internal errors, and
/// aggregates stats over the successful queries. The caller resolves
/// `num_threads` (> 0).
BatchSearchResult RunSearchBatch(
    size_t num_queries, int num_threads,
    const std::function<Result<SearchResult>(size_t)>& run_query);

}  // namespace pis::internal

#endif  // PIS_CORE_FILTER_IMPL_H_
