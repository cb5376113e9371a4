#include "core/pis.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "canonical/min_dfs.h"
#include "core/filter_impl.h"
#include "core/verifier.h"
#include "graph/io.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pis {

namespace {

/// Looks the query up in the batch enumeration cache. On a hit, copies the
/// memoized fragment list into `result` (the copy happens outside the
/// cache lock — only the shared_ptr is fetched under it) and returns true.
/// On a miss, leaves the composite cache key in `key` so the caller can
/// insert its enumeration; an unkeyable query (MinDfsCode rejects it, e.g.
/// disconnected) leaves `key` empty and the caller skips the insert too.
bool LookUpEnumCache(internal::QueryEnumCache* cache, const Graph& query,
                     FilterResult* result, std::string* key) {
  CanonicalOptions canon_opts;
  canon_opts.use_labels = true;
  canon_opts.first_embedding_only = true;
  Result<CanonicalForm> canon = MinDfsCode(query, canon_opts);
  if (!canon.ok()) return false;
  // Composite key: canonical code (the isomorphism class) plus the exact
  // encoding (distinguishes renumbered twins — see QueryEnumCache docs).
  // '\n' cannot appear in a code key, so the join is unambiguous.
  *key = canon.value().Key() + '\n' + FormatGraph(query, 0);
  std::shared_ptr<const std::vector<QueryFragment>> cached;
  {
    MutexLock lock(&cache->mu);
    auto it = cache->by_key.find(*key);
    if (it != cache->by_key.end()) cached = it->second;
  }
  if (cached == nullptr) return false;
  result->fragments = *cached;
  result->stats.enum_cache_hits = 1;
  return true;
}

}  // namespace

PisEngine::PisEngine(const GraphDatabase* db, const ShardedFragmentIndex* index,
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
  if (query.Empty()) {
    return Status::InvalidArgument("query graph is empty");
  }
  Timer timer;
  FilterResult result;

  // Every shard registers the identical class catalog (classes come from
  // the feature set, not the data), so shard 0 serves as the enumeration
  // catalog.
  std::string cache_key;
  const bool cached = enum_cache != nullptr &&
                      LookUpEnumCache(enum_cache, query, &result, &cache_key);
  if (!cached) {
    PIS_ASSIGN_OR_RETURN(
        result.fragments,
        EnumerateIndexedQueryFragments(index_->shard(0), query,
                                       options_.max_query_fragments));
    if (enum_cache != nullptr && !cache_key.empty()) {
      auto shared = std::make_shared<const std::vector<QueryFragment>>(
          result.fragments);
      MutexLock lock(&enum_cache->mu);
      // First writer wins on a race; both enumerated the same thing.
      enum_cache->by_key.emplace(std::move(cache_key), std::move(shared));
    }
  }

  // One fragment's range query = one physical query per shard, each
  // reporting global ids. Shards own disjoint ids, so the merge is a plain
  // union: run inline (one shard or one thread), every shard min-merges
  // straight into `min_dist`; fanned out, each shard fills its own fixed
  // slot first, keeping any thread schedule deterministic.
  const int num_shards = index_->num_shards();
  const bool fan_out = num_shards > 1 && options_.shard_threads > 1;
  std::vector<std::unordered_map<int, double>> per_shard(fan_out ? num_shards
                                                                  : 0);
  std::vector<Status> failures(num_shards);
  auto fragment_dists = [&](size_t fi, double sigma,
                            std::unordered_map<int, double>* min_dist,
                            QueryStats* stats) -> Status {
    const PreparedFragment& fragment = result.fragments[fi].prepared;
    stats->range_queries += num_shards;
    ParallelFor(num_shards, options_.shard_threads, [&](size_t s) {
      std::unordered_map<int, double>* out = min_dist;
      if (fan_out) {
        out = &per_shard[s];
        out->clear();
      }
      failures[s] =
          index_->MinDistances(static_cast<int>(s), fragment, sigma, out);
    });
    for (int s = 0; s < num_shards; ++s) {
      PIS_RETURN_NOT_OK(failures[s]);
      if (fan_out) min_dist->insert(per_shard[s].begin(), per_shard[s].end());
    }
    return Status::OK();
  };
  // Per-shard range queries already exclude per-shard tombstones; the
  // global set seeds the dead slots for the no-pruning path and the live
  // selectivity denominator.
  PIS_RETURN_NOT_OK(internal::RunPisFilterCore(
      db_->size(), &index_->tombstones(), options_, fragment_dists, &result));
  result.stats.filter_seconds = timer.Seconds();
  return result;
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
  // One enumeration memo per batch: duplicate queries reuse the first
  // duplicate's fragment list instead of re-enumerating (results are
  // identical; only work and stats.enum_cache_hits change).
  internal::QueryEnumCache enum_cache;
  return internal::RunSearchBatch(
      queries.size(), num_threads,
      [&](size_t qi) { return engine->SearchImpl(queries[qi], &enum_cache); });
}

}  // namespace pis
