// Top-k substructure search: the k database graphs with the smallest
// minimum superimposed distance to the query. Not in the original paper's
// evaluation (it fixes σ); implemented as the natural extension via
// iterative σ-expansion over the PIS filter, with distances memoized across
// rounds.
#ifndef PIS_CORE_TOPK_H_
#define PIS_CORE_TOPK_H_

#include <utility>
#include <vector>

#include "core/pis.h"
#include "util/status.h"

namespace pis {

struct TopKOptions {
  int k = 10;
  /// First search radius; 0 starts with exact (labeled) containment.
  /// Must be >= 0.
  double initial_sigma = 0.0;
  /// Radius growth per round when fewer than k answers were found.
  double growth = 2.0;
  /// Additive step used when initial_sigma is 0 (growth on 0 stalls).
  /// Must be > 0 — a non-positive step would pin σ at 0 forever.
  double first_step = 1.0;
  /// Hard stop: graphs farther than this are never reported. Must be
  /// >= initial_sigma.
  double max_sigma = 64.0;
  /// Base PIS options (partition algorithm etc.); sigma is overridden.
  PisOptions pis;
};

struct TopKResult {
  /// (graph id, distance), ascending by distance then id; size <= k
  /// (smaller when fewer than k graphs are within max_sigma).
  std::vector<std::pair<int, double>> results;
  /// Rounds of σ-expansion used.
  int rounds = 0;
  /// Final radius searched.
  double final_sigma = 0.0;
  /// Total candidate verifications performed (memoized across rounds).
  size_t verifications = 0;
};

/// Finds the k nearest graphs under the index's distance spec, for any
/// shard count (ids are global). Ties at the k-th distance are broken by
/// graph id (deterministic).
Result<TopKResult> TopKSearch(const GraphDatabase& db,
                              const ShardedFragmentIndex& index,
                              const Graph& query,
                              const TopKOptions& options = {});

}  // namespace pis

#endif  // PIS_CORE_TOPK_H_
