// The skeleton classifier that feature mining, the index build and query
// decomposition (paper §4, Algorithm 2 lines 3-4) share: every connected
// edge subset of a graph, named by its skeleton class and placed in its
// host by a canonical -> host vertex and edge map.
//
// ESU (ForEachConnectedEdgeSubset) emits every subset of two or more edges
// right after its prefix (the subset without its last edge), so a subset is
// classified from its prefix's skeleton and the canonical vertices its last
// edge joins, Subdue's one-edge extension step. What a skeleton becomes
// when an edge joins it at given canonical vertices is canonicalized once
// per table (MinDfsCode), so a few dozen to a few hundred canonicalizations
// cover every subset of a database.
#ifndef PIS_INDEX_SKELETON_TABLE_H_
#define PIS_INDEX_SKELETON_TABLE_H_

#include <cstddef>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "canonical/dfs_code.h"
#include "canonical/min_dfs.h"
#include "graph/graph.h"
#include "index/fragment_enum.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pis {

/// One distinct skeleton. Its canonical vertices are the dfs indices of
/// its minimum DFS code and its canonical edges the code's positions;
/// `graph` is the code's graph, numbered that way.
struct Skeleton {
  DfsCode code;
  /// CanonicalForm::Key() of the code: the fragment index's class key.
  std::string key;
  Graph graph;
};

/// \brief The distinct skeletons one table has met, numbered in the order
/// first met, and the one-edge steps between them.
///
/// Thread-safe. Entries are immutable once published and never removed, so
/// a returned pointer stays valid while the table lives. The mutex is a
/// leaf lock held only for a lookup or insert, never across MinDfsCode.
class SkeletonTable {
 public:
  /// Parent of a single edge: the empty graph, grown by step (kEmpty, 0, 1),
  /// whose two vertices are both new.
  static constexpr int kEmpty = -1;

  /// What skeleton `parent` grows into when an edge joins its canonical
  /// vertices a < b (b = the parent's vertex count stands for a new
  /// vertex). The grown graph has the parent's canonical vertices, plus b
  /// if new, and the parent's canonical edges, plus the new edge last.
  struct Transition {
    int skeleton = -1;
    /// Grown graph vertex -> canonical vertex of `skeleton`.
    std::vector<int> to_canonical;
    /// Grown graph edge -> canonical edge of `skeleton`.
    std::vector<int> to_position;
  };

  /// The transition from `parent` by edge (a, b), publishing it first if
  /// no caller has yet. Canonicalizes outside the lock, so two threads may
  /// both compute a new transition; the first to publish wins.
  const Transition* Step(int parent, int a, int b) PIS_EXCLUDES(mu_);

  /// Skeleton `id`, which a Step of this table returned.
  const Skeleton& skeleton(int id) const PIS_EXCLUDES(mu_);

  /// Every automorphism of skeleton `id`, as the realizations of its code
  /// on its own graph (the identity among them); computed on first request.
  const std::vector<CanonicalEmbedding>& Automorphisms(int id)
      PIS_EXCLUDES(mu_);

  int num_skeletons() const PIS_EXCLUDES(mu_);
  size_t num_transitions() const PIS_EXCLUDES(mu_);
  /// MinDfsCode calls made so far: one per transition and per automorphism
  /// set published, plus any a racing thread computed and lost.
  size_t num_canonicalizations() const PIS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<DfsCode, int> by_code_ PIS_GUARDED_BY(mu_);
  // Node-based containers, so entries never move.
  std::deque<Skeleton> skeletons_ PIS_GUARDED_BY(mu_);
  std::map<std::tuple<int, int, int>, Transition> transitions_
      PIS_GUARDED_BY(mu_);
  std::map<int, std::vector<CanonicalEmbedding>> automorphisms_
      PIS_GUARDED_BY(mu_);
  size_t canonicalizations_ PIS_GUARDED_BY(mu_) = 0;
};

/// A connected edge subset of a host graph, as SkeletonScan hands it over.
/// The spans stay valid until the visitor returns.
struct SkeletonSubset {
  /// Host edge ids, in ESU discovery order.
  const std::vector<EdgeId>& edges;
  /// The subset's skeleton, an id of the scan's table.
  int skeleton;
  /// Host vertex at each canonical vertex of the skeleton.
  std::span<const VertexId> vertices;
  /// Host edge at each canonical edge of the skeleton.
  std::span<const EdgeId> code_edges;
};

/// \brief One sequential scan's front of a SkeletonTable.
///
/// Keeps, per subset size, the skeleton of the subset last emitted and its
/// canonical -> host maps, and a private memo of the transitions met, so
/// only a step this scan has not taken yet reaches the table's lock.
///
/// Not thread-safe: make one per sequential scan; any number of scans may
/// front one table concurrently.
class SkeletonScan {
 public:
  explicit SkeletonScan(SkeletonTable* table) : table_(*table) {}

  /// Runs ESU over `g` from one edge up to window.max_edges and calls
  /// visit(const SkeletonSubset&) on each subset of at least
  /// window.min_edges edges, in ESU order; visit returns false to stop.
  template <typename Visit>
  void Run(const Graph& g, const FragmentEnumOptions& window, Visit&& visit) {
    if (levels_.size() <= static_cast<size_t>(window.max_edges)) {
      levels_.resize(window.max_edges + 1);
    }
    ForEachConnectedEdgeSubset(
        g, {1, window.max_edges}, [&](const std::vector<EdgeId>& subset) {
          const Level& level = Grow(g, subset);
          if (static_cast<int>(subset.size()) < window.min_edges) return true;
          return visit(SkeletonSubset{subset, level.skeleton, level.host,
                                      level.edges});
        });
  }

  SkeletonTable& table() const { return table_; }

 private:
  struct Level {
    int skeleton = SkeletonTable::kEmpty;
    // Canonical vertex -> host vertex; canonical edge -> host edge.
    std::vector<VertexId> host;
    std::vector<EdgeId> edges;
  };

  // Classifies `subset` from its prefix's level into its own.
  const Level& Grow(const Graph& g, const std::vector<EdgeId>& subset);
  // The transition from `parent`, a skeleton of n vertices, by edge
  // (a, b), through this scan's memo.
  const SkeletonTable::Transition& Step(int parent, int n, int a, int b);

  SkeletonTable& table_;
  // Parent skeleton + 1 -> the transitions met, at a * (n + 2) + b.
  std::vector<std::vector<const SkeletonTable::Transition*>> next_;
  std::vector<Level> levels_;
};

}  // namespace pis

#endif  // PIS_INDEX_SKELETON_TABLE_H_
