// Per-query statistics reported by the search engines; the benchmark
// harness aggregates these into the paper's figures.
#ifndef PIS_CORE_STATS_H_
#define PIS_CORE_STATS_H_

#include <cstddef>
#include <string>

namespace pis {

struct QueryStats {
  /// Indexed fragments enumerated in the query (Algorithm 2 lines 3-4).
  size_t fragments_enumerated = 0;
  /// Fragments surviving the ε selectivity filter (line 5).
  size_t fragments_kept = 0;
  /// Range queries issued against the index.
  size_t range_queries = 0;
  /// Fragments in the selected partition P (line 20).
  size_t partition_size = 0;
  /// Total selectivity weight of P.
  double partition_weight = 0;
  /// |CQ| after the per-fragment intersections (line 17).
  size_t candidates_after_intersection = 0;
  /// |CQ| after partition lower-bound pruning (lines 21-23) — the
  /// candidate count the paper plots (Yp).
  size_t candidates_final = 0;
  /// Number of answers after verification.
  size_t answers = 0;
  /// 1 when the query's fragment enumeration was served from a SearchBatch
  /// enumeration cache instead of recomputed (0 outside batches). Like the
  /// timing fields this is schedule-dependent — two duplicate queries
  /// racing on different workers may both miss — so determinism checks
  /// must not compare it.
  size_t enum_cache_hits = 0;
  double filter_seconds = 0;
  double verify_seconds = 0;
  /// Per-stage wall time inside the filter (all schedule-dependent, like
  /// filter_seconds — determinism checks must not compare them). The
  /// observability layer turns these into trace spans and latency
  /// histograms; stages are disjoint except selectivity_seconds, which is
  /// the portion of pass1_seconds spent in ComputeSelectivity.
  double pass1_seconds = 0;        ///< range queries + ε-filter/intersection
  double selectivity_seconds = 0;  ///< ComputeSelectivity within pass 1
  double partition_seconds = 0;    ///< overlap graph + partition selection
  double pass2_seconds = 0;        ///< partition lower-bound pruning
  /// Never written (always 0); kept because perfbench/src/ladder.cc reads it.
  double sketch_seconds = 0;

  /// Adds every counter of `other` into this (batch aggregation).
  void Accumulate(const QueryStats& other);

  std::string ToString() const;
};

}  // namespace pis

#endif  // PIS_CORE_STATS_H_
