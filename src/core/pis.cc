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
  PIS_ASSIGN_OR_RETURN(result.fragments,
                       EnumerateIndexedQueryFragments(index_->shard(0), query));

  // Filter -> plan -> refine (core/shard_filter.h), one shard at a time.
  const int num_shards = index_->num_shards();
  const double sigma = options_.sigma;
  Timer pass1_timer;
  std::vector<ShardFilterResult> shards(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    PIS_RETURN_NOT_OK(
        ShardFilter(*index_, s, result.fragments, sigma, &shards[s]));
  }
  const double pass1_seconds = pass1_timer.Seconds();

  PlanFilter(shards, options_, &result);

  Timer pass2_timer;
  for (int s = 0; s < num_shards; ++s) {
    std::vector<int> refined;
    size_t partition_candidates = 0;
    PIS_RETURN_NOT_OK(ShardRefine(*index_, *db_, s, query, result.fragments,
                                  result.partition, shards[s].survivors, sigma,
                                  &refined, &partition_candidates));
    result.stats.candidates_after_partition += partition_candidates;
    result.candidates.insert(result.candidates.end(), refined.begin(),
                             refined.end());
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
                       options_.sigma);
  result.answers = std::move(verified.answers);
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verified.seconds;
  return result;
}

BatchSearchResult PisEngine::SearchBatch(std::span<const Graph> queries,
                                         int num_threads) const {
  if (num_threads <= 0) num_threads = HardwareThreads();
  return internal::RunSearchBatch(
      queries.size(), num_threads,
      [&](size_t qi) { return Search(queries[qi]); });
}

}  // namespace pis
