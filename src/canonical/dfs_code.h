// gSpan-style DFS codes: sequences of edge tuples with the canonical
// lexicographic order from Yan & Han, "gSpan: Graph-Based Substructure
// Pattern Mining" (ICDM'02) — reference [15] of the paper. Codes describe
// skeletons (Definition 4), so a tuple is just the edge's DFS indices.
#ifndef PIS_CANONICAL_DFS_CODE_H_
#define PIS_CANONICAL_DFS_CODE_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace pis {

/// One DFS-code entry: edge between DFS discovery indices `from` and `to`.
/// `from < to` is a forward (tree) edge, `from > to` a backward edge.
struct DfsEdge {
  int from = 0;
  int to = 0;

  bool IsForward() const { return from < to; }

  bool operator==(const DfsEdge& other) const = default;
};

/// Returns -1/0/+1 for a < b / a == b / a > b under the gSpan edge order.
int CompareDfsEdges(const DfsEdge& a, const DfsEdge& b);

/// \brief A DFS code: an ordered edge list describing a connected skeleton.
class DfsCode {
 public:
  DfsCode() = default;
  explicit DfsCode(std::vector<DfsEdge> edges) : edges_(std::move(edges)) {}

  void Append(const DfsEdge& e) { edges_.push_back(e); }
  size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }
  const DfsEdge& operator[](size_t i) const { return edges_[i]; }
  const std::vector<DfsEdge>& edges() const { return edges_; }

  /// Number of distinct DFS indices referenced (vertex count of the coded
  /// graph); 0 for an empty code.
  int NumVertices() const;

  /// Lexicographic comparison with the gSpan per-edge order; shorter prefix
  /// compares smaller when equal so codes form a prefix-ordered search tree.
  int Compare(const DfsCode& other) const;
  bool operator==(const DfsCode& other) const { return edges_ == other.edges_; }
  bool operator<(const DfsCode& other) const { return Compare(other) < 0; }

  /// Reconstructs the coded skeleton: vertex ids equal DFS indices, every
  /// label kNoLabel.
  Result<Graph> ToGraph() const;

  /// Compact serialization usable as a hash key, e.g.
  /// "(0,1,0,0,0)(1,2,0,0,0)".
  std::string ToKey() const;

 private:
  std::vector<DfsEdge> edges_;
};

}  // namespace pis

#endif  // PIS_CANONICAL_DFS_CODE_H_
