// Labeled undirected graph: the fundamental object of the library.
#ifndef PIS_GRAPH_GRAPH_H_
#define PIS_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pis {

using VertexId = int32_t;
using EdgeId = int32_t;
/// Categorical label (atom type, bond type). kNoLabel means "unlabeled".
using Label = int32_t;

inline constexpr Label kNoLabel = 0;
inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// One undirected edge. `u < v` is NOT guaranteed; endpoints keep insertion
/// order. `weight` supports the linear (geometric) distance; `label`
/// supports the mutation distance.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  Label label = kNoLabel;
  double weight = 0.0;

  /// The endpoint that is not `from`.
  VertexId Other(VertexId from) const { return from == u ? v : u; }
};

/// \brief Undirected graph with labeled/weighted vertices and edges.
///
/// Designed for the small, sparse graphs of chemical databases (tens to a
/// few hundred vertices). Vertices and edges are identified by dense ids in
/// insertion order. Parallel edges and self-loops are rejected by AddEdge
/// (chemical graphs are simple).
///
/// Layout: incidence lists are stored in compressed sparse rows. One flat
/// array `incident_` holds every vertex's incident edge ids back to back, in
/// vertex order; `incident_end_[v]` is the end offset of v's range (its
/// start is the previous vertex's end). A graph is therefore five arrays,
/// whatever its vertex count, and GraphDatabase::Add trims them to their
/// exact size. AddEdge appends the new id at the end of both endpoints'
/// ranges, which moves the ranges behind them: O(V + E) per edge, cheaper
/// than a heap block per vertex at the sizes this library targets. The span
/// IncidentEdges returns stays valid only until the graph is next changed.
class Graph {
 public:
  Graph() = default;

  /// Adds a vertex and returns its id.
  VertexId AddVertex(Label label = kNoLabel, double weight = 0.0);
  /// Adds an undirected edge; returns the edge id, or an error for
  /// out-of-range endpoints, self-loops, and duplicate edges.
  Result<EdgeId> AddEdge(VertexId u, VertexId v, Label label = kNoLabel,
                         double weight = 0.0);

  int NumVertices() const { return static_cast<int>(vertex_labels_.size()); }
  int NumEdges() const { return static_cast<int>(edges_.size()); }
  bool Empty() const { return NumVertices() == 0; }

  Label VertexLabel(VertexId v) const { return vertex_labels_[v]; }
  double VertexWeight(VertexId v) const { return vertex_weights_[v]; }
  void SetVertexLabel(VertexId v, Label label) { vertex_labels_[v] = label; }
  void SetVertexWeight(VertexId v, double w) { vertex_weights_[v] = w; }

  const Edge& GetEdge(EdgeId e) const { return edges_[e]; }
  void SetEdgeLabel(EdgeId e, Label label) { edges_[e].label = label; }
  void SetEdgeWeight(EdgeId e, double w) { edges_[e].weight = w; }

  /// Edge ids incident to `v`, in insertion order. Valid until the graph
  /// is next changed.
  std::span<const EdgeId> IncidentEdges(VertexId v) const {
    const int32_t begin = IncidentBegin(v);
    return {incident_.data() + begin,
            static_cast<size_t>(incident_end_[v] - begin)};
  }
  int Degree(VertexId v) const { return incident_end_[v] - IncidentBegin(v); }

  /// Edge id between u and v, or kInvalidEdge.
  EdgeId FindEdge(VertexId u, VertexId v) const;
  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// True if every vertex is reachable from vertex 0 (true for the empty
  /// graph).
  bool IsConnected() const;

  /// Extracts the subgraph induced by an edge subset. Vertices touched by
  /// the edges are renumbered 0..k-1 in first-appearance order;
  /// `vertex_map_out` (optional) receives original ids indexed by new ids.
  Graph EdgeSubgraph(const std::vector<EdgeId>& edge_ids,
                     std::vector<VertexId>* vertex_map_out = nullptr) const;

  /// Returns a copy whose vertex ids are permuted: new id i holds old vertex
  /// perm[i]. `perm` must be a permutation of 0..n-1.
  Graph Relabeled(const std::vector<VertexId>& perm) const;

  /// Returns a structure-only copy: all vertex/edge labels set to kNoLabel,
  /// weights zeroed. Used for equivalence-class hashing.
  Graph Skeleton() const;

  /// Multi-line human-readable dump (for debugging and golden tests).
  std::string ToString() const;

  /// Structural + label equality under identity mapping (not isomorphism).
  bool operator==(const Graph& other) const;

  /// Releases the growth slack of every array (GraphDatabase::Add calls it
  /// on each graph it stores).
  void ShrinkToFit();

 private:
  int32_t IncidentBegin(VertexId v) const {
    return v == 0 ? 0 : incident_end_[v - 1];
  }

  std::vector<Label> vertex_labels_;
  std::vector<double> vertex_weights_;
  std::vector<Edge> edges_;
  /// incident_end_[v]: end of v's range in incident_ (one per vertex).
  std::vector<int32_t> incident_end_;
  /// Every vertex's incident edge ids, grouped by vertex (2 per edge).
  std::vector<EdgeId> incident_;
};

/// A graph plus its id in a database.
struct GraphEntry {
  int id = -1;
  Graph graph;
};

/// An in-memory graph database: contiguous ids 0..n-1.
///
/// Stored graphs are immutable and shared: each is held by a
/// shared_ptr<const Graph>, so copying a database copies one pointer per
/// graph, and every copy yields the same Graph objects. The serving layer
/// relies on this: a write publishes an appended copy of the database that
/// shares every graph it did not add with the snapshots still pinning the
/// old one.
class GraphDatabase {
 public:
  /// Read-only view of the stored graphs in id order. It yields const
  /// Graph& at addresses that stay valid for as long as any database copy
  /// holding the graph lives. Valid until the viewed database is mutated or
  /// destroyed.
  class View {
   public:
    using Storage = std::vector<std::shared_ptr<const Graph>>;

    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Graph;
      using difference_type = std::ptrdiff_t;
      using pointer = const Graph*;
      using reference = const Graph&;

      Iterator() = default;
      explicit Iterator(Storage::const_iterator it) : it_(it) {}
      reference operator*() const { return **it_; }
      Iterator& operator++() {
        ++it_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator before = *this;
        ++it_;
        return before;
      }
      bool operator==(const Iterator& other) const = default;

     private:
      Storage::const_iterator it_;
    };

    explicit View(const Storage& graphs) : graphs_(&graphs) {}
    Iterator begin() const { return Iterator(graphs_->begin()); }
    Iterator end() const { return Iterator(graphs_->end()); }
    size_t size() const { return graphs_->size(); }
    /// Bounds-checked like std::vector::at.
    const Graph& at(size_t id) const { return *graphs_->at(id); }
    const Graph& operator[](size_t id) const { return *(*graphs_)[id]; }

   private:
    const Storage* graphs_;
  };

  GraphDatabase() = default;

  /// Appends a graph, trimmed to its exact size; returns its id.
  int Add(Graph g) {
    g.ShrinkToFit();
    graphs_.push_back(std::make_shared<const Graph>(std::move(g)));
    return static_cast<int>(graphs_.size()) - 1;
  }

  int size() const { return static_cast<int>(graphs_.size()); }
  bool empty() const { return graphs_.empty(); }
  const Graph& at(int id) const { return *graphs_[id]; }

  View graphs() const { return View(graphs_); }

  /// The graphs with ids in [begin, end), renumbered from 0. The slice
  /// shares this database's Graph objects (one pointer copy per graph), so
  /// slice.at(i) is the very Graph of at(begin + i). Requires
  /// 0 <= begin <= end <= size().
  GraphDatabase Slice(int begin, int end) const;

  /// Average vertex / edge counts (0 for an empty database).
  double AverageVertices() const;
  double AverageEdges() const;
  int MaxVertices() const;
  int MaxEdges() const;

 private:
  View::Storage graphs_;
};

}  // namespace pis

#endif  // PIS_GRAPH_GRAPH_H_
