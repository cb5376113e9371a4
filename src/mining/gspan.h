// gSpan frequent connected-subgraph mining (Yan & Han, ICDM'02 — reference
// [15] of the paper). PIS uses it to mine the indexing features;
// structure-only features are mined with `use_labels = false`, straight
// from the labeled database.
//
// Only what will be extended is materialized: a child code is checked for
// minimality once, when first seen, and non-minimal children collect no
// embeddings; children at max_edges keep only their support gids. An
// embedding is stored one 12-byte step per code entry: the graph, the
// oriented graph edge, and the index of the parent projection entry it
// extends. A projection is a list of exactly sized segments over disjoint
// gid ranges; each child segment is built from one parent segment and
// records which, and the segments of one projection are scanned in
// parallel. Patterns are reported on the calling thread in depth-first
// order, so the output does not depend on num_threads.
#ifndef PIS_MINING_GSPAN_H_
#define PIS_MINING_GSPAN_H_

#include <vector>

#include "graph/graph.h"
#include "mining/pattern.h"
#include "util/status.h"

namespace pis {

struct GspanOptions {
  /// Absolute minimum support (number of database graphs).
  int min_support = 2;
  /// Maximum pattern size in edges (the paper indexes fragments of 4-6
  /// edges; Figure 12 sweeps this).
  int max_edges = 6;
  /// Minimum pattern size in edges for *reporting* (smaller patterns are
  /// still explored internally).
  int min_edges = 1;
  /// Cap on the number of reported patterns, 0 = unlimited. Mining stops
  /// early when reached (depth-first order, so small patterns first).
  size_t max_patterns = 0;
  /// Threads scanning a projection's segments. 1 = sequential; use
  /// HardwareThreads() for full parallelism. The reported patterns (order,
  /// codes, support sets) are identical for every value.
  int num_threads = 1;
  /// Mine with the database's vertex and edge labels. When false every
  /// label reads as kNoLabel, so the patterns are bare structures: the same
  /// result as mining the graphs' Skeleton() copies, without making them.
  /// PIS mines structures only: the feature pipeline and the benchmarks
  /// pass false, and the examples mine Skeleton() copies, where both values
  /// agree. Labeled mining (the default) is kept as the general gSpan that
  /// the brute-force oracle tests check.
  bool use_labels = true;
};

/// Mines all frequent connected subgraphs of `db` up to `options.max_edges`
/// edges. Patterns use the labels present in `db`; to mine bare structures
/// (the paper's features), pass `use_labels = false`. Single-vertex patterns
/// are not reported (features are edge sets).
Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options);

}  // namespace pis

#endif  // PIS_MINING_GSPAN_H_
