// Trie over fixed-length label sequences with cost-bounded range search:
// the paper's index structure for the mutation distance ("for the mutation
// distance, we can use a trie", §4).
#ifndef PIS_INDEX_TRIE_INDEX_H_
#define PIS_INDEX_TRIE_INDEX_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "distance/score_matrix.h"
#include "graph/graph.h"
#include "util/serde.h"

namespace pis {

/// Per-position cost model for sequence mutation distance: positions
/// [0, num_vertex_positions) score with the vertex matrix, the rest with
/// the edge matrix.
struct SequenceCostModel {
  const ScoreMatrix* vertex_scores = nullptr;
  const ScoreMatrix* edge_scores = nullptr;
  int num_vertex_positions = 0;

  double Cost(int position, Label a, Label b) const {
    const ScoreMatrix* m =
        position < num_vertex_positions ? vertex_scores : edge_scores;
    return m->Cost(a, b);
  }
};

/// Inserts `id` into the ascending, duplicate-free `list`: an append when
/// `id` is not below the last element (ids arrive in non-decreasing order
/// from every builder), a sorted insert otherwise.
void InsertSortedUnique(std::vector<int>* list, int id);

/// True when every element of `list` is below the next one.
bool IsStrictlyAscending(const std::vector<int>& list);

/// Receives (graph_id, mutation cost) for a matching stored sequence. One
/// call per (leaf, graph) pair; callers aggregate the per-graph minimum.
using SequenceMatchCallback = std::function<void(int graph_id, double cost)>;

/// \brief Fixed-depth trie keyed by label sequences, postings at the leaves.
///
/// Posting lists are ascending and duplicate-free by construction, so a
/// trie is queryable after any insert.
class LabelTrie {
 public:
  explicit LabelTrie(int sequence_length);

  /// Inserts a sequence for a graph. `seq` must have the trie's length.
  void Insert(std::span<const Label> seq, int graph_id);
  void Insert(std::initializer_list<Label> seq, int graph_id) {
    Insert(std::span<const Label>(seq.begin(), seq.size()), graph_id);
  }

  /// Checks (in debug builds) that every posting list is ascending and
  /// duplicate-free; Insert keeps them so.
  void Finalize() const;

  /// Finds every stored sequence whose mutation cost against `seq` is
  /// <= sigma and invokes the callback per (leaf, graph) posting.
  void RangeQuery(const std::vector<Label>& seq, const SequenceCostModel& model,
                  double sigma, const SequenceMatchCallback& cb) const;

  int sequence_length() const { return sequence_length_; }
  size_t NumLeaves() const { return num_leaves_; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumPostings() const;

  /// Visits every stored sequence with its posting list, in depth-first
  /// symbol order. The references are only valid inside the callback. Used
  /// by compaction to rebuild a trie without the dead postings.
  using SequenceVisitor =
      std::function<void(const std::vector<Label>& seq,
                         const std::vector<int>& postings)>;
  void ForEachSequence(const SequenceVisitor& visitor) const;

  /// Binary persistence: the structural node array and posting lists. A
  /// posting list that is not strictly ascending is a ParseError.
  void Serialize(BinaryWriter* writer) const;
  static Result<LabelTrie> Deserialize(BinaryReader* reader);

 private:
  struct Node {
    // Sorted by symbol; small fan-out expected (few bond/atom types).
    std::vector<std::pair<Label, int32_t>> children;
    int32_t postings = -1;  // index into postings_, leaves only
  };

  int32_t ChildOrCreate(int32_t node, Label symbol);

  int sequence_length_;
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> postings_;
  size_t num_leaves_ = 0;
};

}  // namespace pis

#endif  // PIS_INDEX_TRIE_INDEX_H_
