#include "core/sharded_pis.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/filter_impl.h"
#include "core/verifier.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace pis {

ShardedPisEngine::ShardedPisEngine(const GraphDatabase* db,
                                   const ShardedFragmentIndex* index,
                                   const PisOptions& options)
    : db_(db), index_(index), options_(options) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
  PIS_CHECK(index_->db_size() == db_->size())
      << "sharded index was built over a different database";
}

Result<FilterResult> ShardedPisEngine::Filter(const Graph& query) const {
  return FilterImpl(query, nullptr);
}

Result<FilterResult> ShardedPisEngine::FilterImpl(
    const Graph& query, internal::QueryEnumCache* enum_cache) const {
  const int num_shards = index_->num_shards();
  // One fragment's range query = one physical query per shard, merged back
  // to global ids. Shards own disjoint id ranges, so the merge is a plain
  // union; per-shard maps land in fixed slots, keeping any thread schedule
  // deterministic.
  auto query_fn = [&](const PreparedFragment& fragment, double sigma,
                      std::unordered_map<int, double>* min_dist,
                      QueryStats* stats) -> Status {
    std::vector<std::unordered_map<int, double>> local(num_shards);
    std::vector<Status> failures(num_shards);
    ParallelFor(num_shards, options_.shard_threads, [&](size_t s) {
      failures[s] = internal::MinDistancePerGraph(index_->shard(s), fragment,
                                                  sigma, &local[s]);
    });
    stats->range_queries += num_shards;
    for (int s = 0; s < num_shards; ++s) {
      PIS_RETURN_NOT_OK(failures[s]);
      for (const auto& [local_gid, d] : local[s]) {
        min_dist->emplace(index_->global_id(s, local_gid), d);
      }
    }
    return Status::OK();
  };
  // Any shard serves as the enumeration catalog (identical classes); use
  // shard 0. Per-shard range queries already exclude per-shard tombstones;
  // the global set seeds the dead slots for the no-pruning path and the
  // live selectivity denominator.
  return internal::RunPisFilter(index_->shard(0), db_->size(),
                                &index_->tombstones(), options_, query,
                                query_fn, enum_cache);
}

Result<SearchResult> ShardedPisEngine::Search(const Graph& query) const {
  return SearchImpl(query, nullptr);
}

Result<SearchResult> ShardedPisEngine::SearchImpl(
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

BatchSearchResult ShardedPisEngine::SearchBatch(std::span<const Graph> queries,
                                                int num_threads) const {
  if (num_threads <= 0) num_threads = HardwareThreads();
  // Same anti-oversubscription clamp as PisEngine::SearchBatch, extended to
  // the per-query shard fan-out: with multiple batch workers both inner
  // fan-outs run sequentially. Never changes results, only scheduling.
  const size_t workers =
      std::min(static_cast<size_t>(num_threads), queries.size());
  const ShardedPisEngine* engine = this;
  ShardedPisEngine flat(db_, index_, options_);
  if (workers > 1 &&
      (options_.verify_threads > 1 || options_.shard_threads > 1)) {
    flat.options_.verify_threads = 1;
    flat.options_.shard_threads = 1;
    engine = &flat;
  }
  // One enumeration memo per batch (see PisEngine::SearchBatch).
  internal::QueryEnumCache enum_cache;
  return internal::RunSearchBatch(
      queries.size(), num_threads,
      [&](size_t qi) { return engine->SearchImpl(queries[qi], &enum_cache); });
}

}  // namespace pis
