#include "core/pis.h"

#include <algorithm>

#include "core/filter_impl.h"
#include "core/verifier.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace pis {

PisEngine::PisEngine(const GraphDatabase* db, const FragmentIndex* index,
                     const PisOptions& options)
    : db_(db), index_(index), options_(options) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
  PIS_CHECK(index_->db_size() == db_->size())
      << "index was built over a different database";
}

Result<FilterResult> PisEngine::Filter(const Graph& query) const {
  return FilterImpl(query, nullptr);
}

Result<FilterResult> PisEngine::FilterImpl(
    const Graph& query, internal::QueryEnumCache* enum_cache) const {
  return internal::RunPisFilter(
      *index_, db_->size(), &index_->tombstones(), options_, query,
      [this](const PreparedFragment& fragment, double sigma,
             std::unordered_map<int, double>* min_dist, QueryStats* stats) {
        ++stats->range_queries;
        return internal::MinDistancePerGraph(*index_, fragment, sigma, min_dist);
      },
      enum_cache);
}

Result<SearchResult> PisEngine::Search(const Graph& query) const {
  return SearchImpl(query, nullptr);
}

Result<SearchResult> PisEngine::SearchImpl(
    const Graph& query, internal::QueryEnumCache* enum_cache) const {
  PIS_ASSIGN_OR_RETURN(FilterResult filtered, FilterImpl(query, enum_cache));
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
  // With multiple batch workers, per-query verification runs sequentially:
  // nesting options_.verify_threads under the batch fan-out would multiply
  // the two counts and oversubscribe the machine. The clamp keys on the
  // effective worker count (ParallelFor caps workers at the batch size), so
  // a narrow batch keeps its verify parallelism. Thread counts never affect
  // results, only scheduling.
  const size_t workers =
      std::min(static_cast<size_t>(num_threads), queries.size());
  const PisEngine* engine = this;
  PisEngine flat(db_, index_, options_);
  if (workers > 1 && options_.verify_threads > 1) {
    flat.options_.verify_threads = 1;
    engine = &flat;
  }
  // One enumeration memo per batch: duplicate queries reuse the first
  // duplicate's fragment list instead of re-enumerating (results are
  // identical; only work and stats.enum_cache_hits change).
  internal::QueryEnumCache enum_cache;
  return internal::RunSearchBatch(
      queries.size(), num_threads,
      [&](size_t qi) { return engine->SearchImpl(queries[qi], &enum_cache); });
}

}  // namespace pis
