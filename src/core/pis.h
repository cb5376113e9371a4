// The PIS engine: partition-based graph index and search (paper Algorithm 2
// plus candidate verification). This is the library's primary entry point
// and its only in-process engine: it runs over a ShardedFragmentIndex, of
// which a plain single index is the one-shard case.
#ifndef PIS_CORE_PIS_H_
#define PIS_CORE_PIS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/naive_search.h"
#include "core/options.h"
#include "core/partition.h"
#include "core/query_fragments.h"
#include "core/stats.h"
#include "index/sharded_index.h"
#include "util/status.h"

namespace pis {

/// Output of the filtering phase (Algorithm 2) — everything the benchmark
/// harness needs without paying for verification.
struct FilterResult {
  /// Candidate answer set CQ after partition lower-bound pruning (Yp) and
  /// the graph-local certificate; stats.candidates_after_partition counts
  /// Yp itself.
  std::vector<int> candidates;
  /// Positions (into `fragments`) of the selected partition P.
  std::vector<int> partition;
  /// All kept query fragments with their selectivity weights.
  std::vector<QueryFragment> fragments;
  std::vector<double> selectivities;
  QueryStats stats;
};

/// Outcome of a batched search. `results[i]` corresponds to `queries[i]`;
/// a query that fails (e.g. not indexable) carries its own error without
/// affecting the rest of the batch.
struct BatchSearchResult {
  std::vector<Result<SearchResult>> results;
  /// Per-query stats summed over the successful queries only.
  QueryStats total_stats;
  size_t succeeded = 0;
  size_t failed = 0;
  /// End-to-end batch latency (covers all threads).
  double wall_seconds = 0;
};

/// \brief Partition-based search engine over a (sharded) fragment index.
class PisEngine {
 public:
  /// `db` and `index` must outlive the engine; the index must have been
  /// built over exactly this database. A query runs core/shard_filter.h's
  /// filter on every shard in turn, plans once over their summed
  /// histograms, then refines every shard. So for any shard count the
  /// answers, candidates, and stats are those of a one-shard index over the
  /// same database, except `range_queries`, which is
  /// (fragments_enumerated + partition_size) x num_shards: the filter's and
  /// the refine step's queries on every shard.
  PisEngine(const GraphDatabase* db, const ShardedFragmentIndex* index,
            const PisOptions& options = {});

  /// Algorithm 2, then the certificate: returns the pruned candidate set
  /// and filtering stats.
  Result<FilterResult> Filter(const Graph& query) const;

  /// Filter + verification: the exact SSSD answer set.
  Result<SearchResult> Search(const Graph& query) const;

  /// Runs `Search` over every query, fanning the batch out across
  /// `num_threads` threads (0 = all hardware threads). Per-query results —
  /// including errors — are identical to a sequential `Search` loop; each
  /// query's failure is isolated in its `Result` slot. Thread-safe: the
  /// engine is read-only during search, and each query runs on one thread.
  BatchSearchResult SearchBatch(std::span<const Graph> queries,
                                int num_threads = 0) const;

  const PisOptions& options() const { return options_; }
  const ShardedFragmentIndex& index() const { return *index_; }

 private:
  const GraphDatabase* db_;
  const ShardedFragmentIndex* index_;
  PisOptions options_;
};

}  // namespace pis

#endif  // PIS_CORE_PIS_H_
