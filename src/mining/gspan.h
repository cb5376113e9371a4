// gSpan frequent connected-subgraph mining (Yan & Han, ICDM'02 — reference
// [15] of the paper). PIS uses it to mine the indexing features, which are
// bare structures: the miner reads every vertex and edge label as kNoLabel,
// so it mines a labeled database as it would the graphs' Skeleton() copies,
// without making them.
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
};

/// Mines all frequent connected subgraph structures of `db` up to
/// `options.max_edges` edges; every label of a pattern is kNoLabel (the
/// paper's features). Single-vertex patterns are not reported (features are
/// edge sets).
Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options);

}  // namespace pis

#endif  // PIS_MINING_GSPAN_H_
