// One structural equivalence class [f] (paper Definition 4): all database
// fragments sharing a skeleton, stored in a backend that answers range
// queries d(g, g') <= sigma — a trie for the mutation distance, an R-tree
// for the linear distance, or a VP-tree (Figure 5).
#ifndef PIS_INDEX_CLASS_INDEX_H_
#define PIS_INDEX_CLASS_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "index/vptree.h"
#include "util/status.h"

namespace pis {

/// Backend data structure for a class.
enum class ClassBackend {
  /// Trie over label sequences (mutation distance).
  kTrie,
  /// R-tree over weight vectors (linear distance).
  kRTree,
  /// VP-tree over label sequences or weight vectors (either distance,
  /// requires the configured distance to be a metric).
  kVpTree,
};

/// Picks the paper's default backend for a distance type.
ClassBackend DefaultBackend(DistanceType type);

/// Receives (graph_id, distance) pairs from a class range query. Callers
/// aggregate the per-graph minimum (Eq. 3).
using ClassMatchCallback = std::function<void(int graph_id, double distance)>;

/// \brief Index of one structural equivalence class.
///
/// Insertion: the fragment-index builder canonicalizes each database
/// fragment's skeleton and inserts every automorphism-induced label
/// sequence / weight vector, so a single canonical query sequence retrieves
/// the exact minimum fragment distance (paper §4).
class EquivalenceClassIndex {
 public:
  /// `num_vertices`/`num_edges` describe the class skeleton; sequences have
  /// length num_vertices + num_edges, weight vectors as configured by spec.
  EquivalenceClassIndex(std::string key, int num_vertices, int num_edges,
                        ClassBackend backend, const DistanceSpec* spec);

  /// Inserts one fragment occurrence. `labels` is the canonical sequence
  /// (vertex labels then edge labels); `weights` likewise for numeric
  /// weights (may be empty when the spec is mutation-only).
  void Insert(const std::vector<Label>& labels, const std::vector<double>& weights,
              int graph_id);

  /// Call once after all inserts; builds/finalizes the backend.
  void Finalize();

  /// Re-finalizes after post-Finalize inserts (incremental AddGraph):
  /// re-sorts postings and rebuilds lazily-constructed backends.
  void Refinalize();

  /// Rewrites the backend keeping only postings whose graph id survives
  /// `remap` (remap[old_id] is the new id, or -1 for a dropped graph; it
  /// must be strictly increasing over the survivors so sorted posting lists
  /// stay sorted). Dead sequences/points and their index structure are
  /// discarded — this is where tombstone compaction reclaims memory. After
  /// the call, num_fragments() counts the surviving (deduplicated)
  /// postings. Requires Finalize(); the class stays finalized.
  void Compact(const std::vector<int>& remap);

  /// Range query (Algorithm 2 line 9): every graph owning a fragment in
  /// this class within `sigma` of the query fragment, with the per-graph
  /// minimum distance. Must be called after Finalize().
  Status RangeQuery(const std::vector<Label>& labels,
                    const std::vector<double>& weights, double sigma,
                    const ClassMatchCallback& cb) const;

  const std::string& key() const { return key_; }
  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return num_edges_; }
  size_t num_fragments() const { return num_fragments_; }
  ClassBackend backend() const { return backend_; }

  /// Sorted ids of graphs owning at least one fragment in this class
  /// (structure containment — what topoPrune filters on). Valid after
  /// Finalize().
  const std::vector<int>& containing_graphs() const { return containing_graphs_; }

  /// Binary persistence. Serialization requires Finalize(); the
  /// deserialized class is already finalized. `spec` must outlive the
  /// returned object (the fragment index owns it).
  Status Serialize(BinaryWriter* writer) const;
  static Result<std::unique_ptr<EquivalenceClassIndex>> Deserialize(
      BinaryReader* reader, const DistanceSpec* spec);

 private:
  int WeightDims() const;
  /// Vertex positions included in label sequences: 0 when the vertex score
  /// matrix is all-zero (they could never contribute cost).
  int NumVertexPositions() const;
  SequenceCostModel MakeSequenceModel() const;

  std::string key_;
  int num_vertices_;
  int num_edges_;
  ClassBackend backend_;
  const DistanceSpec* spec_;
  size_t num_fragments_ = 0;
  bool finalized_ = false;
  std::vector<int> containing_graphs_;

  std::unique_ptr<LabelTrie> trie_;
  std::unique_ptr<RTree> rtree_;
  // VP-tree is built lazily at Finalize() from buffered items.
  std::vector<std::vector<Label>> vp_labels_;
  std::vector<std::vector<double>> vp_weights_;
  std::vector<int> vp_graph_ids_;
  std::unique_ptr<VpTree> vptree_;
};

}  // namespace pis

#endif  // PIS_INDEX_CLASS_INDEX_H_
