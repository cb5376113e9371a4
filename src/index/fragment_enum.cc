#include "index/fragment_enum.h"

#include "util/logging.h"

namespace pis {

namespace {

// ESU (Wernicke, 2006) on the line graph: subsets containing root edge r use
// only edges > r; the extension set grows by *exclusive* neighbors of the
// newest edge, which guarantees each subset has exactly one generation path.
//
// All extension sets live on one stack, ext_: a node's set is the range
// [lo, ext_.size()) at its entry, and a child's set is copied above it, so
// the enumeration allocates nothing once the stack has grown.
class EdgeEsu {
 public:
  EdgeEsu(const Graph& g, const FragmentEnumOptions& options,
          const EdgeSubsetCallback& cb)
      : g_(g), options_(options), cb_(cb) {
    in_subset_.assign(g.NumEdges(), false);
    neighbor_of_subset_.assign(g.NumEdges(), false);
  }

  size_t Run() {
    for (EdgeId root = 0; root < g_.NumEdges(); ++root) {
      if (stopped_) break;
      root_ = root;
      subset_.assign(1, root);
      in_subset_[root] = true;
      ext_.clear();
      PushEligibleNeighbors(root);
      MarkNeighbors(0, true);
      Extend(0);
      MarkNeighbors(0, false);
      in_subset_[root] = false;
    }
    return emitted_;
  }

 private:
  // Pushes onto ext_ the edge-neighbors of `e` that are allowed in subsets
  // rooted at root_ (id > root_) and not already adjacent to the subset.
  void PushEligibleNeighbors(EdgeId e) {
    const Edge& edge = g_.GetEdge(e);
    for (VertexId endpoint : {edge.u, edge.v}) {
      for (EdgeId nb : g_.IncidentEdges(endpoint)) {
        if (nb == e || nb <= root_) continue;
        if (in_subset_[nb] || neighbor_of_subset_[nb]) continue;
        ext_.push_back(nb);
      }
    }
  }

  // Sets neighbor_of_subset_ for every edge in ext_[from, ext_.size()).
  void MarkNeighbors(size_t from, bool value) {
    for (size_t i = from; i < ext_.size(); ++i) {
      neighbor_of_subset_[ext_[i]] = value;
    }
  }

  void Emit() {
    if (static_cast<int>(subset_.size()) >= options_.min_edges) {
      ++emitted_;
      if (!cb_(subset_)) stopped_ = true;
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
    for (size_t i = end; i-- > lo;) {
      EdgeId w = ext_[i];
      // Children may use the remaining extension ext_[lo, i) plus
      // exclusive neighbors of w (edges adjacent to w but not to the
      // current subset).
      subset_.push_back(w);
      in_subset_[w] = true;
      for (size_t j = lo; j < i; ++j) ext_.push_back(ext_[j]);
      const size_t fresh = ext_.size();
      PushEligibleNeighbors(w);
      MarkNeighbors(fresh, true);
      Extend(end);
      MarkNeighbors(fresh, false);
      ext_.resize(end);
      in_subset_[w] = false;
      subset_.pop_back();
      if (stopped_) return;
    }
  }

  const Graph& g_;
  FragmentEnumOptions options_;
  const EdgeSubsetCallback& cb_;
  EdgeId root_ = 0;
  std::vector<EdgeId> subset_;
  std::vector<EdgeId> ext_;
  std::vector<bool> in_subset_;
  std::vector<bool> neighbor_of_subset_;
  size_t emitted_ = 0;
  bool stopped_ = false;
};

}  // namespace

size_t EnumerateConnectedEdgeSubgraphs(const Graph& g,
                                       const FragmentEnumOptions& options,
                                       const EdgeSubsetCallback& cb) {
  PIS_CHECK(options.min_edges >= 1 && options.max_edges >= options.min_edges);
  EdgeEsu esu(g, options, cb);
  return esu.Run();
}

size_t CountConnectedEdgeSubgraphs(const Graph& g,
                                   const FragmentEnumOptions& options) {
  return EnumerateConnectedEdgeSubgraphs(
      g, options, [](const std::vector<EdgeId>&) { return true; });
}

}  // namespace pis
