#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace pis {

VertexId Graph::AddVertex(Label label, double weight) {
  vertex_labels_.push_back(label);
  vertex_weights_.push_back(weight);
  adjacency_.emplace_back();
  return static_cast<VertexId>(vertex_labels_.size()) - 1;
}

Result<EdgeId> Graph::AddEdge(VertexId u, VertexId v, Label label, double weight) {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("AddEdge: self-loops are not supported");
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists("AddEdge: parallel edge");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, label, weight});
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  return id;
}

EdgeId Graph::FindEdge(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) {
    return kInvalidEdge;
  }
  // Scan the smaller adjacency list.
  VertexId probe = (Degree(u) <= Degree(v)) ? u : v;
  VertexId other = (probe == u) ? v : u;
  for (EdgeId e : adjacency_[probe]) {
    if (edges_[e].Other(probe) == other) return e;
  }
  return kInvalidEdge;
}

bool Graph::IsConnected() const {
  if (NumVertices() == 0) return true;
  std::vector<bool> seen(NumVertices(), false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  int count = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (EdgeId e : adjacency_[v]) {
      VertexId w = edges_[e].Other(v);
      if (!seen[w]) {
        seen[w] = true;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == NumVertices();
}

Graph Graph::EdgeSubgraph(const std::vector<EdgeId>& edge_ids,
                          std::vector<VertexId>* vertex_map_out) const {
  Graph out;
  std::vector<VertexId> old_to_new(NumVertices(), kInvalidVertex);
  std::vector<VertexId> new_to_old;
  auto map_vertex = [&](VertexId old) {
    if (old_to_new[old] == kInvalidVertex) {
      old_to_new[old] = out.AddVertex(vertex_labels_[old], vertex_weights_[old]);
      new_to_old.push_back(old);
    }
    return old_to_new[old];
  };
  for (EdgeId e : edge_ids) {
    PIS_DCHECK(e >= 0 && e < NumEdges());
    const Edge& edge = edges_[e];
    VertexId nu = map_vertex(edge.u);
    VertexId nv = map_vertex(edge.v);
    auto added = out.AddEdge(nu, nv, edge.label, edge.weight);
    PIS_CHECK(added.ok()) << added.status().ToString();
  }
  if (vertex_map_out != nullptr) {
    *vertex_map_out = std::move(new_to_old);
  }
  return out;
}

Graph Graph::Relabeled(const std::vector<VertexId>& perm) const {
  PIS_CHECK(static_cast<int>(perm.size()) == NumVertices());
  // inverse[old] = new position of old vertex.
  std::vector<VertexId> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[perm[i]] = static_cast<VertexId>(i);
  }
  Graph out;
  for (size_t i = 0; i < perm.size(); ++i) {
    out.AddVertex(vertex_labels_[perm[i]], vertex_weights_[perm[i]]);
  }
  for (const Edge& e : edges_) {
    auto added = out.AddEdge(inverse[e.u], inverse[e.v], e.label, e.weight);
    PIS_CHECK(added.ok()) << added.status().ToString();
  }
  return out;
}

Graph Graph::Skeleton() const {
  Graph out;
  for (int v = 0; v < NumVertices(); ++v) {
    out.AddVertex(kNoLabel, 0.0);
  }
  for (const Edge& e : edges_) {
    auto added = out.AddEdge(e.u, e.v, kNoLabel, 0.0);
    PIS_CHECK(added.ok()) << added.status().ToString();
  }
  return out;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  os << "Graph(" << NumVertices() << " vertices, " << NumEdges() << " edges)\n";
  for (int v = 0; v < NumVertices(); ++v) {
    os << "  v" << v << " label=" << vertex_labels_[v]
       << " weight=" << vertex_weights_[v] << "\n";
  }
  for (int e = 0; e < NumEdges(); ++e) {
    os << "  e" << e << " (" << edges_[e].u << "," << edges_[e].v
       << ") label=" << edges_[e].label << " weight=" << edges_[e].weight << "\n";
  }
  return os.str();
}

bool Graph::operator==(const Graph& other) const {
  if (NumVertices() != other.NumVertices() || NumEdges() != other.NumEdges()) {
    return false;
  }
  if (vertex_labels_ != other.vertex_labels_ ||
      vertex_weights_ != other.vertex_weights_) {
    return false;
  }
  for (int e = 0; e < NumEdges(); ++e) {
    const Edge& a = edges_[e];
    const Edge& b = other.edges_[e];
    bool same = (a.u == b.u && a.v == b.v) || (a.u == b.v && a.v == b.u);
    if (!same || a.label != b.label || a.weight != b.weight) return false;
  }
  return true;
}

double GraphDatabase::AverageVertices() const {
  if (graphs_.empty()) return 0;
  double total = 0;
  for (const Graph& g : graphs()) total += g.NumVertices();
  return total / static_cast<double>(graphs_.size());
}

double GraphDatabase::AverageEdges() const {
  if (graphs_.empty()) return 0;
  double total = 0;
  for (const Graph& g : graphs()) total += g.NumEdges();
  return total / static_cast<double>(graphs_.size());
}

int GraphDatabase::MaxVertices() const {
  int best = 0;
  for (const Graph& g : graphs()) best = std::max(best, g.NumVertices());
  return best;
}

int GraphDatabase::MaxEdges() const {
  int best = 0;
  for (const Graph& g : graphs()) best = std::max(best, g.NumEdges());
  return best;
}

}  // namespace pis
