// Frequent connected-subgraph mining, standing in for gSpan (Yan & Han,
// ICDM'02 — reference [15] of the paper). PIS uses it to mine the indexing
// features, which are bare structures: the miner reads every vertex and
// edge label as kNoLabel, so it mines a labeled database as it would the
// graphs' Skeleton() copies, without making them.
//
// Features have at most max_edges edges, so the miner enumerates them
// directly instead of growing DFS codes over embedding lists: one scan runs
// ESU (ForEachConnectedEdgeSubset) over every graph and classifies each
// connected edge subset from the subset one edge smaller it grew from.
// What a skeleton becomes when an edge joins it at given canonical
// vertices is canonicalized once per run (MinDfsCode, labels off), so a
// few dozen to a few hundred canonicalizations cover every subset. Workers
// take fixed segments of 16 graphs in turn; the skeleton table is shared,
// the step memo is per worker. The frequent skeletons are reported in
// gSpan's depth-first order (its children's tuple order, prefix first),
// with gSpan's codes and support sets, so the output does not depend on
// num_threads.
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
  /// still mined).
  int min_edges = 1;
  /// Cap on the number of reported patterns, 0 = unlimited: the first
  /// max_patterns of the full report, in depth-first order (a pattern's
  /// prefixes before it).
  size_t max_patterns = 0;
  /// Threads scanning the database's graph segments. 1 = sequential; use
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
