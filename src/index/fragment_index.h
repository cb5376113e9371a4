// The fragment-based index of PIS (paper §4, Figures 4-5): a hash table
// from canonical skeleton codes to per-class indexes. Construction scans
// the database once, enumerating every fragment whose skeleton is a
// selected feature and inserting all automorphism-induced label sequences /
// weight vectors.
#ifndef PIS_INDEX_FRAGMENT_INDEX_H_
#define PIS_INDEX_FRAGMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "canonical/min_dfs.h"
#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "index/class_index.h"
#include "index/fragment_enum.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

struct FragmentIndexOptions {
  /// Size bounds (in edges) of indexed fragments. max_edges is the paper's
  /// "maximum indexed fragment size" (Figure 12 sweeps 4-6).
  int min_fragment_edges = 1;
  int max_fragment_edges = 6;
  /// Distance the index answers range queries for. Its type fixes each
  /// class's backend (paper §4): a trie for the mutation distance, an
  /// R-tree for the linear distance.
  DistanceSpec spec;
  /// Threads for the build's fragment-extraction phase: the database is
  /// split into this many contiguous graph-id ranges, each scanned with its
  /// own SkeletonMemo over the index's one SkeletonCache. 1 = sequential;
  /// use HardwareThreads() for full parallelism. Runtime-only (not
  /// persisted by Save).
  int num_threads = 1;
};

/// Build-time statistics (reported by benches and the index explorer).
struct FragmentIndexStats {
  size_t num_classes = 0;
  size_t num_fragment_occurrences = 0;
  size_t num_sequences_inserted = 0;
  size_t num_subsets_enumerated = 0;
  size_t num_subsets_skipped_by_signature = 0;
  double build_seconds = 0;
};

/// A query fragment prepared for range queries: resolved class plus
/// canonical label sequence / weight vector.
struct PreparedFragment {
  int class_id = -1;
  std::vector<Label> labels;
  std::vector<double> weights;
  int num_edges = 0;
};

class FragmentIndex;

/// The structure-only classification of one connected edge subset: what the
/// index makes of the subset's skeleton, independent of its labels.
struct SkeletonClass {
  /// The subset's StructureSignature matches no indexed class.
  bool skipped_by_signature = false;
  /// Indexed class of the skeleton, or -1.
  int class_id = -1;
  /// Every realization of the skeleton's minimum DFS code (MinDfsCode with
  /// use_labels = false), over the subset's local ids: vertex v is the v-th
  /// vertex Graph::EdgeSubgraph would create, edge e is subset[e]. Empty
  /// unless class_id >= 0.
  std::vector<CanonicalEmbedding> embeddings;
};

/// A connected edge subset's local edge pattern, packed: the (local u,
/// local v) pair of each edge in subset order, with local vertex ids
/// assigned as Graph::EdgeSubgraph assigns them (first appearance, u
/// before v). Edge i takes byte i (u in the low nibble, v in the high one)
/// of the 15 low bytes; the top byte holds the edge count. Subsets of more
/// than kMaxEdges edges have no packed key.
struct PatternKey {
  static constexpr int kMaxEdges = 15;
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const PatternKey&) const = default;
};

struct PatternKeyHash {
  size_t operator()(const PatternKey& key) const {
    uint64_t h =
        (key.lo ^ (key.hi * 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// \brief Skeleton classifications of one index, shared by every scan of it.
///
/// With labels off, MinDfsCode and StructureSignature read only the vertex
/// count, edge list and adjacency order of a subset's EdgeSubgraph, and
/// those are a pure function of its PatternKey, so one canonicalization per
/// distinct pattern is exact for every subset that shares it. The class
/// catalog and signatures never change after Build/Load (AddGraph, Compact
/// and Clone keep them), so a classification stays valid for the index's
/// lifetime: the index holds the cache by shared_ptr and Clone shares it.
/// The cache is bounded by the distinct local edge patterns of the indexed
/// graphs and queries, which are few: 160 at <= 4 edges across 287,427
/// subsets of 1,000 seed-1 molecules, and 3,272 at <= 6 edges over 200.
///
/// Thread-safe. Entries are immutable once published and never removed, so
/// a returned pointer stays valid while the cache lives. The mutex is a
/// leaf lock held only for a map lookup or insert, never across MinDfsCode.
class SkeletonCache {
 public:
  /// The published classification of `key`, or nullptr.
  const SkeletonClass* Find(const PatternKey& key) const PIS_EXCLUDES(mu_);
  /// Publishes `cls` for `key` unless another thread already did; returns
  /// the published entry either way.
  const SkeletonClass* Insert(const PatternKey& key, SkeletonClass cls)
      PIS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // Node-based, so entries never move.
  std::unordered_map<PatternKey, SkeletonClass, PatternKeyHash> classes_
      PIS_GUARDED_BY(mu_);
};

/// \brief Per-scan, lock-free front of an index's SkeletonCache.
///
/// Classify packs the subset's PatternKey and looks it up in a private
/// map; only a pattern this scan has not met yet goes to the shared cache,
/// and only a pattern no scan has met yet runs EdgeSubgraph, the signature
/// prefilter, MinDfsCode and the class lookup.
/// The signature prefilter never rejects an indexed skeleton: Build
/// registers each class's signature with the class, and Save/Load persist
/// both.
///
/// Not thread-safe: make one per sequential scan (a build range, an
/// AddGraph, one query's decomposition); any number of memos may front one
/// cache concurrently.
class SkeletonMemo {
 public:
  explicit SkeletonMemo(const FragmentIndex& index);

  /// Classifies one connected edge subset of `host`. Canonicalization
  /// errors are returned, never cached. The result stays valid while the
  /// index lives, except for subsets of more than PatternKey::kMaxEdges
  /// edges, which are classified afresh each call into a slot the next
  /// Classify overwrites.
  Result<const SkeletonClass*> Classify(const Graph& host,
                                        std::span<const EdgeId> subset);

  /// Host vertex of each local vertex of the subset last classified.
  const std::vector<VertexId>& local_to_host() const { return local_to_host_; }

  /// The label sequence / weight vector of the subset last classified
  /// under one of its embeddings, read from `host` through the local->host
  /// maps — the sequence FragmentIndex::Prepare builds for
  /// host.EdgeSubgraph(subset) under the same embedding.
  void Vectors(const Graph& host, std::span<const EdgeId> subset,
               const CanonicalEmbedding& embedding, std::vector<Label>* labels,
               std::vector<double>* weights) const;
  /// Vectors, appended to `labels` / `weights` instead of replacing them.
  void AppendVectors(const Graph& host, std::span<const EdgeId> subset,
                     const CanonicalEmbedding& embedding,
                     std::vector<Label>* labels,
                     std::vector<double>* weights) const;

 private:
  Result<const SkeletonClass*> ClassifyNew(const Graph& host,
                                           std::span<const EdgeId> subset,
                                           SkeletonClass* out) const;

  const FragmentIndex& index_;
  SkeletonCache& cache_;
  std::unordered_map<PatternKey, const SkeletonClass*, PatternKeyHash> seen_;
  SkeletonClass uncached_;
  const bool vertex_labels_;
  // The subset last classified: host_to_local_ holds the local id of
  // exactly the vertices in local_to_host_, kInvalidVertex elsewhere.
  std::vector<VertexId> host_to_local_;
  std::vector<VertexId> local_to_host_;
};

/// \brief The PIS fragment-based index.
class FragmentIndex {
 public:
  /// Builds the index over `db` using the given structure features
  /// (skeleton graphs, e.g. from the gSpan+gIndex pipeline in src/mining).
  /// Features larger than max_fragment_edges or smaller than
  /// min_fragment_edges are ignored; duplicate features are deduplicated by
  /// canonical key.
  static Result<FragmentIndex> Build(const GraphDatabase& db,
                                     const std::vector<Graph>& features,
                                     const FragmentIndexOptions& options);

  /// Resolves a labeled query fragment against the index. NotFound when the
  /// fragment's skeleton is not an indexed class.
  Result<PreparedFragment> Prepare(const Graph& fragment) const;

  /// Range query d(g, g') <= sigma over a prepared fragment (Algorithm 2
  /// line 9); emits (graph_id, distance) with possible repeats per graph —
  /// callers keep the minimum (Eq. 3).
  Status RangeQuery(const PreparedFragment& fragment, double sigma,
                    const ClassMatchCallback& cb) const;

  /// Convenience: Prepare + RangeQuery.
  Status RangeQuery(const Graph& fragment, double sigma,
                    const ClassMatchCallback& cb) const;

  /// True if the fragment's skeleton is indexed.
  bool HasClass(const Graph& fragment) const;

  /// Incremental maintenance: indexes one graph appended to the database
  /// (its id becomes db_size()). The caller must append the same graph to
  /// its GraphDatabase to keep ids aligned. Only the classes the new graph
  /// touches are re-finalized; feature classes are fixed at Build time
  /// (fragments of the new graph outside existing classes are not indexed,
  /// exactly as if the graph had been present at build time with the same
  /// feature set). Returns the id assigned to the graph.
  Result<int> AddGraph(const Graph& g);

  /// Incremental maintenance: tombstones graph `gid`. Its postings stay in
  /// the class backends but every subsequent RangeQuery filters it out, so
  /// queries behave exactly as if the index had been rebuilt without the
  /// graph (modulo the selectivity denominator, which engines take from
  /// num_live()). Ids are never reused. NotFound when `gid` is out of range
  /// or already removed.
  Status RemoveGraph(int gid);

  /// True when `gid` names a graph that was added and not removed.
  bool IsLive(int gid) const {
    return gid >= 0 && gid < db_size_ && tombstones_.count(gid) == 0;
  }
  /// Graphs added minus graphs removed — the selectivity denominator.
  int num_live() const {
    return db_size_ - static_cast<int>(tombstones_.size());
  }
  /// Removed graph ids (never reused). Postings of these ids still occupy
  /// backend memory until Compact() (or a full rebuild) reclaims them.
  const std::unordered_set<int>& tombstones() const { return tombstones_; }
  /// Fraction of id slots that are tombstoned — the operator signal for
  /// when to Compact(). 0 for an empty index.
  double dead_ratio() const {
    return db_size_ == 0 ? 0.0
                         : static_cast<double>(tombstones_.size()) / db_size_;
  }

  /// Tombstone compaction: rewrites every class backend in place, dropping
  /// the postings of removed graphs and re-densifying the surviving ids to
  /// 0..num_live()-1 in their original order. Afterwards the index is
  /// byte-for-byte equivalent in query behaviour to one rebuilt from
  /// scratch over the live graphs (the class catalog — fixed at Build — is
  /// kept even for classes that became empty, so a sharded catalog stays
  /// identical across shards). Returns the id remap: remap[old_id] is the
  /// new id, or -1 for a removed graph — callers re-densify their aligned
  /// GraphDatabase with it. With zero tombstones this is a strict no-op
  /// (identity remap, no epoch bump, byte-identical Save).
  std::vector<int> Compact();

  /// Number of Compact() rewrites this index has absorbed (persisted by
  /// Save; informational).
  uint32_t compaction_epoch() const { return compaction_epoch_; }

  /// Independent copy: every class backend is copied, and the immutable
  /// spec and skeleton cache are shared (spec_holder_ keeps the spec alive
  /// for both, so each class's spec pointer stays valid). Mutating the copy
  /// never changes the source.
  /// Used by the copy-on-write shard detach of ShardedFragmentIndex.
  Result<FragmentIndex> Clone() const;

  /// Binary persistence: write the full index (options, spec, classes,
  /// tombstones, compaction epoch) so a later process can Load() and serve
  /// queries without rebuilding. Load reads only the version Save writes
  /// (v5) and refuses any other with a ParseError naming the version.
  Status Save(std::ostream& out) const;
  Status SaveFile(const std::string& path) const;
  static Result<FragmentIndex> Load(std::istream& in);
  static Result<FragmentIndex> LoadFile(const std::string& path);

  int num_classes() const { return static_cast<int>(classes_.size()); }
  const EquivalenceClassIndex& class_at(int id) const { return *classes_[id]; }
  const FragmentIndexStats& stats() const { return stats_; }
  const FragmentIndexOptions& options() const { return options_; }
  int db_size() const { return db_size_; }

 private:
  friend class SkeletonMemo;

  FragmentIndex() = default;

  // Appends the canonical label sequence / weight vector of one fragment
  // embedding of `g` with `nv` vertices and `ne` edges: the embedding's
  // i-th vertex is vertex(i) and its k-th edge is edge(k), ids of `g`.
  // `vertex_labels` is SequenceHasVertexLabels(), hoisted by the caller.
  template <typename VertexAt, typename EdgeAt>
  void AppendVectors(const Graph& g, bool vertex_labels, size_t nv,
                     VertexAt vertex, size_t ne, EdgeAt edge,
                     std::vector<Label>* labels,
                     std::vector<double>* weights) const;
  // Mirrors EquivalenceClassIndex::NumVertexPositions(): vertex labels are
  // omitted when the vertex score matrix can never contribute cost.
  bool SequenceHasVertexLabels() const {
    return !options_.spec.vertex_scores.IsZero();
  }

  // Save / Load / LoadFile over in-memory bytes.
  Status Serialize(BinaryWriter* writer) const;
  static Result<FragmentIndex> Parse(BinaryReader* reader);

  // The fragment sequences extracted from one graph, awaiting insertion
  // (extraction is parallel and side-effect free; insertion is sequential
  // in graph-id order). Sequence i belongs to entries[i].class_id; its
  // labels are labels[entries[i - 1].labels_end, entries[i].labels_end)
  // and its weights are delimited the same way. Sequential scans reuse one
  // buffer across graphs.
  struct PendingFragments {
    struct Entry {
      int class_id;
      uint32_t labels_end;
      uint32_t weights_end;
    };
    std::vector<Entry> entries;
    std::vector<Label> labels;
    std::vector<double> weights;

    void clear() {
      entries.clear();
      labels.clear();
      weights.clear();
    }
    std::span<const Label> Labels(size_t i) const {
      const uint32_t begin = i == 0 ? 0 : entries[i - 1].labels_end;
      return {labels.data() + begin, entries[i].labels_end - begin};
    }
    std::span<const double> Weights(size_t i) const {
      const uint32_t begin = i == 0 ? 0 : entries[i - 1].weights_end;
      return {weights.data() + begin, entries[i].weights_end - begin};
    }
  };
  struct ExtractStats {
    size_t subsets = 0;
    size_t skipped_by_signature = 0;
    size_t occurrences = 0;
  };

  // Enumerates the fragments of one graph whose skeleton is a registered
  // class, emitting deduplicated automorphism sequences. Reads only
  // immutable index state; concurrent calls need distinct memos.
  Status ExtractGraphFragments(const Graph& g, SkeletonMemo* memo,
                               PendingFragments* out,
                               ExtractStats* stats) const;

  // Applies extracted fragments of graph `gid` and folds its stats in.
  void ApplyExtraction(int gid, const PendingFragments& pending,
                       const ExtractStats& stats);

  FragmentIndexOptions options_;
  /// Stable home for the spec: per-class indexes keep raw pointers to it,
  /// and FragmentIndex itself is movable.
  std::shared_ptr<const DistanceSpec> spec_holder_;
  int db_size_ = 0;
  std::unordered_map<std::string, int> class_by_key_;
  std::vector<std::unique_ptr<EquivalenceClassIndex>> classes_;
  std::unordered_set<uint64_t> signatures_;
  /// Classifications of local edge patterns against the catalog above;
  /// shared with clones.
  std::shared_ptr<SkeletonCache> skeletons_;
  /// Removed graph ids (persisted by Save).
  std::unordered_set<int> tombstones_;
  /// Count of Compact() rewrites (persisted by Save).
  uint32_t compaction_epoch_ = 0;
  FragmentIndexStats stats_;
};

/// Cheap structural signature (vertex count, edge count, degree multiset)
/// used to skip subsets that cannot match any indexed class.
uint64_t StructureSignature(const Graph& g);

}  // namespace pis

#endif  // PIS_INDEX_FRAGMENT_INDEX_H_
