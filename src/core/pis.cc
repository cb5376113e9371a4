#include "core/pis.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/filter_impl.h"
#include "core/shard_filter.h"
#include "core/verifier.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pis {

PisEngine::PisEngine(const GraphDatabase* db, const ShardedFragmentIndex* index,
                     const PisOptions& options)
    : db_(db), index_(index), options_(options) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
  PIS_CHECK(index_->db_size() == db_->size())
      << "index was built over a different database";
}

Result<FilterResult> PisEngine::Filter(const Graph& query) const {
  if (query.Empty()) {
    return Status::InvalidArgument("query graph is empty");
  }
  Timer timer;
  FilterResult result;

  // Every shard registers the identical class catalog (classes come from
  // the feature set, not the data), so shard 0 serves as the enumeration
  // catalog.
  PIS_ASSIGN_OR_RETURN(
      result.fragments,
      EnumerateIndexedQueryFragments(index_->shard(0), query,
                                     options_.max_query_fragments));

  // Filter -> plan -> refine (core/shard_filter.h). The per-shard steps
  // write fixed slots, so any shard_threads schedule gives one result.
  const int num_shards = index_->num_shards();
  const double sigma = options_.sigma;
  std::vector<Status> failures(num_shards);
  Timer pass1_timer;
  std::vector<ShardFilterResult> shards(num_shards);
  ParallelFor(num_shards, options_.shard_threads, [&](size_t s) {
    failures[s] = ShardFilter(*index_, static_cast<int>(s), result.fragments,
                              sigma, &shards[s]);
  });
  for (const Status& failure : failures) PIS_RETURN_NOT_OK(failure);
  const double pass1_seconds = pass1_timer.Seconds();

  PlanFilter(shards, options_, &result);

  Timer pass2_timer;
  std::vector<std::vector<int>> refined(num_shards);
  std::vector<size_t> partition_candidates(num_shards, 0);
  ParallelFor(num_shards, options_.shard_threads, [&](size_t s) {
    failures[s] = ShardRefine(*index_, *db_, static_cast<int>(s), query,
                              result.fragments, result.partition,
                              shards[s].survivors, sigma, &refined[s],
                              &partition_candidates[s]);
  });
  for (int s = 0; s < num_shards; ++s) {
    PIS_RETURN_NOT_OK(failures[s]);
    result.stats.candidates_after_partition += partition_candidates[s];
    result.candidates.insert(result.candidates.end(), refined[s].begin(),
                             refined[s].end());
  }
  std::sort(result.candidates.begin(), result.candidates.end());
  result.stats.candidates_final = result.candidates.size();
  // The selectivity fits are Algorithm 2's pass-1 work (line 18), so they
  // count toward pass 1 as well as toward selectivity_seconds.
  result.stats.pass1_seconds = pass1_seconds + result.stats.selectivity_seconds;
  result.stats.pass2_seconds = pass2_timer.Seconds();
  result.stats.filter_seconds = timer.Seconds();
  return result;
}

Result<SearchResult> PisEngine::Search(const Graph& query) const {
  PIS_ASSIGN_OR_RETURN(FilterResult filtered, Filter(query));
  SearchResult result;
  result.candidates = std::move(filtered.candidates);
  result.stats = filtered.stats;
  VerifyResult verified =
      VerifyCandidates(*db_, query, result.candidates, index_->options().spec,
                       options_.sigma, options_.verify_threads);
  result.answers = std::move(verified.answers);
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verified.seconds;
  return result;
}

BatchSearchResult PisEngine::SearchBatch(std::span<const Graph> queries,
                                         int num_threads) const {
  if (num_threads <= 0) num_threads = HardwareThreads();
  // With multiple batch workers, per-query shard fan-out and verification
  // run sequentially: nesting them under the batch fan-out would multiply
  // the thread counts and oversubscribe the machine. The clamp keys on the
  // effective worker count (ParallelFor caps workers at the batch size), so
  // a narrow batch keeps its inner parallelism. Thread counts never affect
  // results, only scheduling.
  const size_t workers =
      std::min(static_cast<size_t>(num_threads), queries.size());
  const PisEngine* engine = this;
  PisEngine clamped(db_, index_, options_);
  if (workers > 1 &&
      (options_.verify_threads > 1 || options_.shard_threads > 1)) {
    clamped.options_.verify_threads = 1;
    clamped.options_.shard_threads = 1;
    engine = &clamped;
  }
  return internal::RunSearchBatch(
      queries.size(), num_threads,
      [&](size_t qi) { return engine->Search(queries[qi]); });
}

}  // namespace pis
