// Shared implementation core of the PIS filtering phase (Algorithm 2) and
// the batched-search driver, parameterized over how one fragment's range
// query is answered. PisEngine plugs in a single monolithic index;
// ShardedPisEngine fans the query across per-shard indexes and merges. Both
// engines therefore run byte-identical filtering logic — the equivalence
// guarantee of the sharded engine falls out by construction.
//
// Internal header: not exported through pis.h.
#ifndef PIS_CORE_FILTER_IMPL_H_
#define PIS_CORE_FILTER_IMPL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/options.h"
#include "core/pis.h"
#include "core/query_fragments.h"
#include "index/fragment_index.h"
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

/// Answers one fragment's range query: fills `min_dist` with the per-graph
/// minimum distance over all matches within `sigma` (Eq. 3), keyed by
/// global graph id, and adds the number of physical index queries issued to
/// `stats->range_queries`. `min_dist` arrives empty.
using FragmentQueryFn = std::function<Status(
    const PreparedFragment& fragment, double sigma,
    std::unordered_map<int, double>* min_dist, QueryStats* stats)>;

/// Runs one range query against a single index and aggregates the per-graph
/// minimum distance (Algorithm 2 lines 10-16). The building block of every
/// FragmentQueryFn.
Status MinDistancePerGraph(const FragmentIndex& index,
                           const PreparedFragment& fragment, double sigma,
                           std::unordered_map<int, double>* out);

/// Answers the range query of the fragment at `fragment_pos` (a position
/// into the pre-enumerated fragment list) during a RunPisFilterCore run.
/// Engines wrap their FragmentQueryFn over the prepared fragment; the
/// cluster router instead moves in per-shard maps merged from remote shard
/// servers. `min_dist` arrives empty, keyed by global graph id on return.
using FragmentDistFn =
    std::function<Status(size_t fragment_pos, double sigma,
                         std::unordered_map<int, double>* min_dist,
                         QueryStats* stats)>;

/// The post-enumeration core of Algorithm 2: pass-1 ε-filter +
/// intersection, overlap-graph partition, and pass-2 summed-lower-bound
/// pruning, over `result->fragments` which must already hold the enumerated
/// query fragments (RunPisFilter fills them locally; the cluster router
/// receives them from a shard server, which enumerated against the
/// identical frozen catalog). Fills every stats counter except
/// enum_cache_hits and the timing fields. Factoring the core out of
/// enumeration is what lets the distributed router run byte-identical
/// global filtering — selectivity denominators, partition choice, pass-2
/// bounds — over range-query maps merged across the socket boundary.
Status RunPisFilterCore(int db_size, const std::unordered_set<int>* tombstones,
                        const PisOptions& options,
                        const FragmentDistFn& fragment_dists,
                        FilterResult* result);

/// Algorithm 2 over `db_size` graph-id slots. `enum_index` supplies the
/// class catalog for query-fragment enumeration (for a sharded index any
/// shard works: classes are registered from the feature set alone, so every
/// shard carries the same catalog). Range-query results for fragments
/// surviving the ε-filter are cached and reused for the partition in pass 2
/// — the partition is a subset of the kept fragments, so pass 2 issues no
/// range queries; memory is bounded by `fragments_kept` maps.
///
/// `tombstones` (nullable) holds removed graph ids: they start dead — never
/// candidates even when no query fragment prunes anything — and the
/// selectivity denominator is the live count, so an incrementally mutated
/// index filters exactly like one rebuilt from scratch over the live
/// graphs. `query_fn` must already exclude tombstoned ids from its results
/// (FragmentIndex::RangeQuery does).
///
/// `enum_cache` (nullable) memoizes the fragment enumeration across the
/// queries of one batch: a duplicate query reuses the first duplicate's
/// fragment list (stats.enum_cache_hits = 1) instead of re-enumerating and
/// re-preparing every connected edge subset. Results are identical either
/// way; unkeyable queries (disconnected) simply bypass the cache.
Result<FilterResult> RunPisFilter(const FragmentIndex& enum_index, int db_size,
                                  const std::unordered_set<int>* tombstones,
                                  const PisOptions& options, const Graph& query,
                                  const FragmentQueryFn& query_fn,
                                  QueryEnumCache* enum_cache = nullptr);

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
