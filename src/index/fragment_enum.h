// Connected edge-subgraph enumeration: every connected subset of edges up
// to a size cap, each emitted exactly once (ESU adapted to the line graph).
// Both index construction (fragments of database graphs) and query
// processing (fragments of the query graph, Algorithm 2 lines 3-4) use it.
#ifndef PIS_INDEX_FRAGMENT_ENUM_H_
#define PIS_INDEX_FRAGMENT_ENUM_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"

namespace pis {

struct FragmentEnumOptions {
  int min_edges = 1;
  int max_edges = 6;
};

/// Receives each connected edge subset (edge ids of the host graph, in
/// discovery order). Return false to stop the enumeration early.
using EdgeSubsetCallback = std::function<bool(const std::vector<EdgeId>&)>;

/// Enumerates every connected edge subset of `g` with size in
/// [min_edges, max_edges], exactly once each. Returns the number emitted.
size_t EnumerateConnectedEdgeSubgraphs(const Graph& g,
                                       const FragmentEnumOptions& options,
                                       const EdgeSubsetCallback& cb);

/// Counts without materializing (for capacity planning and tests).
size_t CountConnectedEdgeSubgraphs(const Graph& g, const FragmentEnumOptions& options);

namespace internal {

// ESU (Wernicke, 2006) on the line graph: subsets containing root edge r use
// only edges > r; the extension set grows by *exclusive* neighbors of the
// newest edge, which guarantees each subset has exactly one generation path.
//
// All extension sets live on one stack, ext_: a node's set is the range
// [lo, ext_.size()) at its entry, and a child's set is copied above it, so
// the enumeration allocates nothing once the stack has grown. The visitor is
// a template parameter, so the hot loop makes no indirect call.
template <typename Visit>
class EdgeEsu {
 public:
  EdgeEsu(const Graph& g, const FragmentEnumOptions& options, Visit& visit)
      : g_(g), options_(options), visit_(visit), state_(g.NumEdges(), 0) {}

  size_t Run() {
    for (EdgeId root = 0; root < g_.NumEdges(); ++root) {
      if (stopped_) break;
      root_ = root;
      subset_.assign(1, root);
      state_[root] = kInSubset;
      ext_.clear();
      PushEligibleNeighbors(root);
      MarkNeighbors(0, true);
      Extend(0);
      MarkNeighbors(0, false);
      state_[root] = 0;
    }
    return emitted_;
  }

 private:
  // Per-edge flags: in the current subset, or adjacent to it (already on
  // the extension stack).
  static constexpr uint8_t kInSubset = 1;
  static constexpr uint8_t kNeighbor = 2;

  // Pushes onto ext_ the edge-neighbors of `e` that are allowed in subsets
  // rooted at root_ (id > root_) and not already adjacent to the subset.
  void PushEligibleNeighbors(EdgeId e) {
    const Edge& edge = g_.GetEdge(e);
    for (VertexId endpoint : {edge.u, edge.v}) {
      for (EdgeId nb : g_.IncidentEdges(endpoint)) {
        if (nb == e || nb <= root_ || state_[nb] != 0) continue;
        ext_.push_back(nb);
      }
    }
  }

  // Sets or clears the neighbor flag of every edge in ext_[from, end).
  void MarkNeighbors(size_t from, bool value) {
    for (size_t i = from; i < ext_.size(); ++i) {
      if (value) {
        state_[ext_[i]] |= kNeighbor;
      } else {
        state_[ext_[i]] &= static_cast<uint8_t>(~kNeighbor);
      }
    }
  }

  void Emit() {
    if (static_cast<int>(subset_.size()) >= options_.min_edges) {
      ++emitted_;
      if (!visit_(std::as_const(subset_))) stopped_ = true;
    }
  }

  // The candidate edges that may still be added at this node are
  // ext_[lo, ext_.size()); they are consumed from the back. Leaves ext_ as
  // it found it.
  void Extend(size_t lo) {
    Emit();
    if (stopped_) return;
    if (static_cast<int>(subset_.size()) >= options_.max_edges) return;
    const size_t end = ext_.size();
    if (static_cast<int>(subset_.size()) + 1 == options_.max_edges) {
      // The children are leaves: emit them without building the extension
      // sets they would never use (most subsets sit at the size cap).
      for (size_t i = end; i-- > lo;) {
        subset_.push_back(ext_[i]);
        Emit();
        subset_.pop_back();
        if (stopped_) return;
      }
      return;
    }
    for (size_t i = end; i-- > lo;) {
      EdgeId w = ext_[i];
      // Children may use the remaining extension ext_[lo, i) plus
      // exclusive neighbors of w (edges adjacent to w but not to the
      // current subset).
      subset_.push_back(w);
      state_[w] |= kInSubset;
      for (size_t j = lo; j < i; ++j) ext_.push_back(ext_[j]);
      const size_t fresh = ext_.size();
      PushEligibleNeighbors(w);
      MarkNeighbors(fresh, true);
      Extend(end);
      MarkNeighbors(fresh, false);
      ext_.resize(end);
      state_[w] &= static_cast<uint8_t>(~kInSubset);
      subset_.pop_back();
      if (stopped_) return;
    }
  }

  const Graph& g_;
  FragmentEnumOptions options_;
  Visit& visit_;
  EdgeId root_ = 0;
  std::vector<EdgeId> subset_;
  std::vector<EdgeId> ext_;
  std::vector<uint8_t> state_;
  size_t emitted_ = 0;
  bool stopped_ = false;
};

}  // namespace internal

/// EnumerateConnectedEdgeSubgraphs with the visitor inlined: `visit` is
/// called as bool(const std::vector<EdgeId>&) on each subset, in the same
/// order. The index build, query decomposition and feature mining use this
/// form. The order is depth-first: with min_edges = 1, a subset of two or
/// more edges comes right after the last subset of one edge fewer emitted
/// before it, which is its own prefix (the subset without its last edge).
template <typename Visit>
size_t ForEachConnectedEdgeSubset(const Graph& g,
                                  const FragmentEnumOptions& options,
                                  Visit&& visit) {
  PIS_CHECK(options.min_edges >= 1 && options.max_edges >= options.min_edges);
  internal::EdgeEsu<std::remove_reference_t<Visit>> esu(g, options, visit);
  return esu.Run();
}

}  // namespace pis

#endif  // PIS_INDEX_FRAGMENT_ENUM_H_
