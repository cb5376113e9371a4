// One structural equivalence class [f] (paper Definition 4): all database
// fragments sharing a skeleton, stored in the backend the paper pairs with
// the configured distance (§4, Figure 5) to answer range queries
// d(g, g') <= sigma — a trie for the mutation distance, an R-tree for the
// linear distance.
#ifndef PIS_INDEX_CLASS_INDEX_H_
#define PIS_INDEX_CLASS_INDEX_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "util/status.h"

namespace pis {

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
  /// The spec's distance type picks the backend.
  EquivalenceClassIndex(std::string key, int num_vertices, int num_edges,
                        const DistanceSpec* spec);
  /// Deep copy of the backend and containment list. The spec pointer is
  /// shared: the copy must live inside an index that keeps the same spec
  /// alive (FragmentIndex::Clone shares its spec holder).
  EquivalenceClassIndex(const EquivalenceClassIndex& other);
  EquivalenceClassIndex& operator=(const EquivalenceClassIndex&) = delete;

  /// Inserts one fragment occurrence. `labels` is the canonical sequence
  /// (vertex labels then edge labels); `weights` likewise for numeric
  /// weights (may be empty when the spec is mutation-only). The
  /// containment list and the trie's postings stay sorted as they grow, so
  /// inserts after Finalize() (incremental AddGraph) need no re-sort.
  void Insert(std::span<const Label> labels, std::span<const double> weights,
              int graph_id);

  /// True when the backend keeps one posting per stored sequence and graph
  /// (the trie): inserting a sequence again for the same graph then only
  /// counts the occurrence, which CountRepeat does without the walk. The
  /// R-tree stores every point.
  bool CollapsesRepeats() const { return trie_ != nullptr; }
  /// Insert of a sequence this class already holds for the graph most
  /// recently inserted, on a CollapsesRepeats() class.
  void CountRepeat() { ++num_fragments_; }

  /// Call once after the build's inserts: marks the class queryable and
  /// checks (in debug builds) that its posting lists are sorted.
  void Finalize();

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

  /// Sorted ids of graphs owning at least one fragment in this class
  /// (structure containment — what topoPrune filters on). Valid after
  /// Finalize().
  const std::vector<int>& containing_graphs() const { return containing_graphs_; }

  /// Binary persistence. Serialization requires Finalize(); the
  /// deserialized class is already finalized. `spec` must outlive the
  /// returned object (the fragment index owns it). A class whose backend
  /// tag is not the spec's own, or whose containment list or postings are
  /// not strictly ascending, is a ParseError.
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
  const DistanceSpec* spec_;
  size_t num_fragments_ = 0;
  bool finalized_ = false;
  std::vector<int> containing_graphs_;

  // Exactly one backend is set: the trie for a mutation spec, the R-tree
  // for a linear one.
  std::unique_ptr<LabelTrie> trie_;
  std::unique_ptr<RTree> rtree_;
};

}  // namespace pis

#endif  // PIS_INDEX_CLASS_INDEX_H_
