#include "core/topo_prune.h"

#include <algorithm>

#include "core/query_fragments.h"
#include "core/shard_filter.h"
#include "util/logging.h"
#include "util/timer.h"

namespace pis {

TopoPruneEngine::TopoPruneEngine(const GraphDatabase* db,
                                 const ShardedFragmentIndex* index)
    : db_(db), index_(index) {
  PIS_CHECK(db_ != nullptr && index_ != nullptr);
}

Result<std::vector<int>> TopoPruneEngine::Filter(const Graph& query,
                                                 QueryStats* stats) const {
  if (query.Empty()) {
    return Status::InvalidArgument("query graph is empty");
  }
  Timer timer;
  // Every shard registers the identical class catalog, so shard 0 serves as
  // the enumeration catalog (as in PisEngine).
  PIS_ASSIGN_OR_RETURN(std::vector<QueryFragment> fragments,
                       EnumerateIndexedQueryFragments(index_->shard(0), query));
  // Distinct classes only: containment is a class property.
  std::vector<int> class_ids;
  for (const QueryFragment& qf : fragments) {
    class_ids.push_back(qf.prepared.class_id);
  }
  std::sort(class_ids.begin(), class_ids.end());
  class_ids.erase(std::unique(class_ids.begin(), class_ids.end()),
                  class_ids.end());
  std::vector<int> candidates;
  for (int s = 0; s < index_->num_shards(); ++s) {
    std::vector<int> local = ShardContainment(*index_, s, class_ids);
    candidates.insert(candidates.end(), local.begin(), local.end());
  }
  std::sort(candidates.begin(), candidates.end());
  if (stats != nullptr) {
    stats->fragments_enumerated = fragments.size();
    stats->range_queries = class_ids.size() * index_->num_shards();
    stats->candidates_after_intersection = candidates.size();
    // The paper's baseline: no partition and no certificate.
    stats->candidates_after_partition = candidates.size();
    stats->candidates_final = candidates.size();
    stats->filter_seconds = timer.Seconds();
  }
  return candidates;
}

Result<SearchResult> TopoPruneEngine::Search(const Graph& query,
                                             double sigma) const {
  SearchResult result;
  PIS_ASSIGN_OR_RETURN(result.candidates, Filter(query, &result.stats));
  VerifyResult verified = VerifyCandidates(*db_, query, result.candidates,
                                           index_->options().spec, sigma);
  result.answers = std::move(verified.answers);
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verified.seconds;
  return result;
}

}  // namespace pis
