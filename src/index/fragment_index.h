// The fragment-based index of PIS (paper §4, Figures 4-5): a hash table
// from canonical skeleton codes to per-class indexes. Construction scans
// the database once through the skeleton classifier feature mining shares
// (src/index/skeleton_table.h): every fragment whose skeleton is a
// selected feature is inserted under all its automorphism-induced label
// sequences / weight vectors, so the one sequence a query fragment brings
// finds the minimum superimposed distance.
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
#include "index/skeleton_table.h"
#include "util/status.h"

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
  /// own IndexScan over the index's one SkeletonTable. 1 = sequential;
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
  double build_seconds = 0;
};

/// A query fragment prepared for range queries: resolved class plus
/// canonical label sequence / weight vector (see IndexScan::AppendVectors;
/// core/query_fragments.h prepares a query's fragments).
struct PreparedFragment {
  int class_id = -1;
  std::vector<Label> labels;
  std::vector<double> weights;
  int num_edges = 0;
};

class FragmentIndex;

/// \brief One sequential scan of graphs for the fragments an index's
/// classes hold, classified through the index's SkeletonTable.
///
/// Not thread-safe: make one per sequential scan (a build range, an
/// AddGraph, one query's decomposition); any number of scans may share one
/// index.
class IndexScan {
 public:
  explicit IndexScan(const FragmentIndex& index);

  /// Calls visit(const SkeletonSubset&, int class_id) on every connected
  /// edge subset of `g` within the index's fragment size bounds, in ESU
  /// order; class_id is the indexed class of the subset's skeleton, or -1.
  /// visit returns false to stop.
  template <typename Visit>
  void Run(const Graph& g, Visit&& visit) {
    scan_.Run(g, window_, [&](const SkeletonSubset& subset) {
      return visit(subset, ClassOf(subset.skeleton));
    });
  }

  /// Every automorphism of `skeleton`, an id of the index's table.
  const std::vector<CanonicalEmbedding>& Automorphisms(int skeleton);

  /// Appends the label sequence / weight vector of `subset` of `host`
  /// under one automorphism of its skeleton, read through the subset's
  /// canonical -> host map composed with `automorphism`: vertex labels when
  /// the vertex scores can cost, then edge labels; for the linear distance
  /// the configured vertex, then edge weights (one 0 when neither is).
  void AppendVectors(const Graph& host, const SkeletonSubset& subset,
                     const CanonicalEmbedding& automorphism,
                     std::vector<Label>* labels,
                     std::vector<double>* weights) const;

 private:
  int ClassOf(int skeleton);

  const FragmentIndex& index_;
  const FragmentEnumOptions window_;
  SkeletonScan scan_;
  const bool vertex_labels_;
  // Skeleton id -> indexed class, -1 for none, kUnknown until looked up.
  // The class catalog never changes after Build/Load, so an answer holds
  // for the scan's lifetime.
  static constexpr int kUnknown = -2;
  std::vector<int> class_of_;
  std::vector<const std::vector<CanonicalEmbedding>*> automorphisms_;
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

  /// Range query d(g, g') <= sigma over a prepared fragment (Algorithm 2
  /// line 9); emits (graph_id, distance) with possible repeats per graph —
  /// callers keep the minimum (Eq. 3).
  Status RangeQuery(const PreparedFragment& fragment, double sigma,
                    const ClassMatchCallback& cb) const;

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
  /// spec and the skeleton table are shared (spec_holder_ keeps the spec alive
  /// for both, so each class's spec pointer stays valid). Mutating the copy
  /// never changes the source.
  /// Used by the copy-on-write shard detach of ShardedFragmentIndex.
  Result<FragmentIndex> Clone() const;

  /// Binary persistence: write the full index (options, spec, classes,
  /// tombstones, compaction epoch) so a later process can Load() and serve
  /// queries without rebuilding. Save writes v6; Load reads v6 and v5
  /// (whose retired signature section and counter it discards) and refuses
  /// any other version with a ParseError naming it.
  Status Save(std::ostream& out) const;
  Status SaveFile(const std::string& path) const;
  static Result<FragmentIndex> Load(std::istream& in);
  static Result<FragmentIndex> LoadFile(const std::string& path);

  int num_classes() const { return static_cast<int>(classes_.size()); }
  const EquivalenceClassIndex& class_at(int id) const { return *classes_[id]; }
  const FragmentIndexStats& stats() const { return stats_; }
  const FragmentIndexOptions& options() const { return options_; }
  int db_size() const { return db_size_; }
  /// The skeleton classifications this index's scans share (with clones).
  const SkeletonTable& skeletons() const { return *skeletons_; }

 private:
  friend class IndexScan;

  FragmentIndex() = default;

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
    size_t occurrences = 0;
  };

  // Enumerates the fragments of one graph whose skeleton is a registered
  // class, emitting deduplicated automorphism sequences. Reads only
  // immutable index state; concurrent calls need distinct scans.
  void ExtractGraphFragments(const Graph& g, IndexScan* scan,
                             PendingFragments* out, ExtractStats* stats) const;

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
  /// The skeletons and one-edge steps the index's scans have met; shared
  /// with clones.
  std::shared_ptr<SkeletonTable> skeletons_;
  /// Removed graph ids (persisted by Save).
  std::unordered_set<int> tombstones_;
  /// Count of Compact() rewrites (persisted by Save).
  uint32_t compaction_epoch_ = 0;
  FragmentIndexStats stats_;
};

}  // namespace pis

#endif  // PIS_INDEX_FRAGMENT_INDEX_H_
