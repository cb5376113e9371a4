#include "canonical/dfs_code.h"

#include <algorithm>
#include <sstream>

namespace pis {

int CompareDfsEdges(const DfsEdge& a, const DfsEdge& b) {
  bool fa = a.IsForward();
  bool fb = b.IsForward();
  if (fa && fb) {
    if (a.to != b.to) return a.to < b.to ? -1 : 1;
    // Deeper origin (larger from) comes first.
    if (a.from != b.from) return a.from > b.from ? -1 : 1;
    return 0;
  }
  if (!fa && !fb) {
    if (a.from != b.from) return a.from < b.from ? -1 : 1;
    if (a.to != b.to) return a.to < b.to ? -1 : 1;
    return 0;
  }
  if (!fa && fb) {
    // backward vs forward: backward smaller iff its origin precedes the
    // forward edge's new vertex.
    return a.from < b.to ? -1 : 1;
  }
  // forward vs backward.
  return a.to <= b.from ? -1 : 1;
}

int DfsCode::NumVertices() const {
  int max_index = -1;
  for (const DfsEdge& e : edges_) {
    max_index = std::max({max_index, e.from, e.to});
  }
  return max_index + 1;
}

int DfsCode::Compare(const DfsCode& other) const {
  size_t n = std::min(edges_.size(), other.edges_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = CompareDfsEdges(edges_[i], other.edges_[i]);
    if (c != 0) return c;
  }
  if (edges_.size() != other.edges_.size()) {
    return edges_.size() < other.edges_.size() ? -1 : 1;
  }
  return 0;
}

Result<Graph> DfsCode::ToGraph() const {
  Graph g;
  for (const DfsEdge& e : edges_) {
    if (e.from < 0 || e.to < 0) return Status::InvalidArgument("negative DFS index");
  }
  const int n = NumVertices();
  for (int i = 0; i < n; ++i) g.AddVertex();
  for (const DfsEdge& e : edges_) {
    auto added = g.AddEdge(e.from, e.to);
    if (!added.ok()) return added.status();
  }
  if (!g.IsConnected()) {
    return Status::InvalidArgument("DFS code describes a disconnected graph");
  }
  return g;
}

std::string DfsCode::ToKey() const {
  // Three zero fields per tuple: class keys are stored in index files.
  std::ostringstream os;
  for (const DfsEdge& e : edges_) {
    os << '(' << e.from << ',' << e.to << ",0,0,0)";
  }
  return os.str();
}

}  // namespace pis
