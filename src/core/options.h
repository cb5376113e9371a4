// Configuration of the PIS search engine (paper Algorithm 2 knobs).
#ifndef PIS_CORE_OPTIONS_H_
#define PIS_CORE_OPTIONS_H_

#include <cstddef>

#include "distance/distance_spec.h"

namespace pis {

/// Which MWIS heuristic selects the partition (paper §5).
enum class PartitionAlgorithm {
  /// Algorithm 1: pick the max-weight vertex, remove neighbors, repeat.
  kGreedy,
  /// EnhancedGreedy(k): pick the max-weight independent k-set per round
  /// (optimality ratio c/k, cost O(c k n^k)).
  kEnhancedGreedy,
  /// Exact branch-and-bound MWIS (exponential; ablation/tests only).
  kExact,
  /// Use the single best fragment only (ablation baseline).
  kSingleBest,
};

struct PisOptions {
  /// Maximum superimposed distance threshold σ.
  double sigma = 2.0;
  /// Selectivity cutoff multiplier λ (Figure 11): d(g, G) is capped at λσ
  /// and graphs outside the range-query result contribute λσ each.
  double lambda = 1.0;
  /// ε of Algorithm 2 line 5: fragments with selectivity <= ε are dropped
  /// before partitioning.
  double epsilon = 0.0;
  PartitionAlgorithm partition_algorithm = PartitionAlgorithm::kGreedy;
  /// k for kEnhancedGreedy.
  int enhanced_k = 2;
  /// Cap on enumerated query fragments (0 = unlimited). When hit, the
  /// largest fragments are kept (they are the selective ones).
  size_t max_query_fragments = 0;
  /// Auto-compaction threshold for sharded serving: when > 0, callers that
  /// own a mutable ShardedFragmentIndex forward this to
  /// set_compact_dead_ratio so a RemoveGraph compacts the owning shard once
  /// its tombstoned fraction reaches the threshold; EngineHost instead
  /// hands it to its background compactor so the write path stays cheap.
  /// 0 (default) disables — compaction then only happens on explicit
  /// Compact()/CompactShard() calls (`pis_cli compact`). Never affects
  /// query results, only when the dead postings are reclaimed.
  double compact_dead_ratio = 0.0;
};

}  // namespace pis

#endif  // PIS_CORE_OPTIONS_H_
