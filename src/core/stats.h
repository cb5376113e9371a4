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
  /// Physical range queries issued against the index: one per (fragment,
  /// shard) in pass 1 plus one per (partition fragment, shard) in pass 2,
  /// i.e. (fragments_enumerated + partition_size) x shards for the PIS
  /// engines.
  size_t range_queries = 0;
  /// Fragments in the selected partition P (line 20).
  size_t partition_size = 0;
  /// Total selectivity weight of P.
  double partition_weight = 0;
  /// |CQ| after the per-fragment intersections (line 17).
  size_t candidates_after_intersection = 0;
  /// |CQ| after partition lower-bound pruning (lines 21-23) — the
  /// candidate count the paper plots (Yp). Engines without a partition
  /// (topoPrune, the naive scan) report their final count here too.
  size_t candidates_after_partition = 0;
  /// The candidates handed to verification. For the PIS engines: the Yp
  /// candidates whose graph-local certificate (core/certificate.h) also
  /// stays within σ, so candidates_final <= candidates_after_partition.
  size_t candidates_final = 0;
  /// Number of answers after verification.
  size_t answers = 0;
  double filter_seconds = 0;
  double verify_seconds = 0;
  /// Per-stage wall time inside the filter (all schedule-dependent, like
  /// filter_seconds — determinism checks must not compare them). The
  /// observability layer turns these into trace spans and latency
  /// histograms; stages are disjoint except selectivity_seconds, which is
  /// the portion of pass1_seconds spent merging the per-shard distance
  /// histograms and computing the selectivities.
  double pass1_seconds = 0;        ///< range queries, intersection, fits
  double selectivity_seconds = 0;  ///< histogram merge + selectivities
  double partition_seconds = 0;    ///< ε-filter + partition selection
  double pass2_seconds = 0;        ///< partition range queries, pruning
                                   ///< and certification
  /// Never written (always 0); kept because perfbench/src/ladder.cc reads it.
  double sketch_seconds = 0;

  /// Adds every counter of `other` into this (batch aggregation).
  void Accumulate(const QueryStats& other);

  std::string ToString() const;
};

}  // namespace pis

#endif  // PIS_CORE_STATS_H_
