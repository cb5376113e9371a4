// The fragment-based index of PIS (paper §4, Figures 4-5): a hash table
// from canonical skeleton codes to per-class indexes. Construction scans
// the database once, enumerating every fragment whose skeleton is a
// selected feature and inserting all automorphism-induced label sequences /
// weight vectors.
#ifndef PIS_INDEX_FRAGMENT_INDEX_H_
#define PIS_INDEX_FRAGMENT_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "index/class_index.h"
#include "index/fragment_enum.h"
#include "util/status.h"

namespace pis {

struct FragmentIndexOptions {
  /// Size bounds (in edges) of indexed fragments. max_edges is the paper's
  /// "maximum indexed fragment size" (Figure 12 sweeps 4-6).
  int min_fragment_edges = 1;
  int max_fragment_edges = 6;
  /// Distance the index answers range queries for.
  DistanceSpec spec;
  /// Backend override; defaults by distance type (trie / R-tree).
  std::optional<ClassBackend> backend;
  /// Threads for the build's fragment-extraction phase (canonicalization
  /// dominates build time and parallelizes per graph). 1 = sequential;
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
  /// format v3; informational).
  uint32_t compaction_epoch() const { return compaction_epoch_; }

  /// Deep copy. Per-class backends hold raw pointers into spec_holder_, so
  /// a memberwise copy would alias the source; the copy goes through the
  /// (full-fidelity) serialization round trip instead, then carries over the
  /// runtime-only state Save() skips (thread options, build timings). Used
  /// by the copy-on-write shard swaps of the serving layer.
  Result<FragmentIndex> Clone() const;

  /// Binary persistence: write the full index (options, spec, classes) so a
  /// later process can Load() and serve queries without rebuilding.
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
  FragmentIndex() = default;

  // Builds the canonical label sequence / weight vector of one fragment
  // embedding.
  void BuildVectors(const Graph& fragment, const std::vector<VertexId>& vorder,
                    const std::vector<EdgeId>& eorder, std::vector<Label>* labels,
                    std::vector<double>* weights) const;

  // One fragment sequence awaiting insertion (extraction is parallel and
  // side-effect free; insertion is sequential in graph-id order).
  struct PendingInsert {
    int class_id;
    std::vector<Label> labels;
    std::vector<double> weights;
  };
  struct ExtractStats {
    size_t subsets = 0;
    size_t skipped_by_signature = 0;
    size_t occurrences = 0;
  };

  // Enumerates the fragments of one graph whose skeleton is a registered
  // class, emitting deduplicated automorphism sequences. Thread-safe
  // (reads only immutable index state).
  Status ExtractGraphFragments(const Graph& g, std::vector<PendingInsert>* out,
                               ExtractStats* stats) const;

  // Extract + apply + account: shared by the sequential build path and
  // AddGraph.
  Status InsertGraphFragments(int gid, const Graph& g);

  // Applies extracted fragments of graph `gid` and folds its stats in.
  void ApplyExtraction(int gid, const std::vector<PendingInsert>& pending,
                       const ExtractStats& stats);

  FragmentIndexOptions options_;
  /// Stable home for the spec: per-class indexes keep raw pointers to it,
  /// and FragmentIndex itself is movable.
  std::shared_ptr<const DistanceSpec> spec_holder_;
  int db_size_ = 0;
  std::unordered_map<std::string, int> class_by_key_;
  std::vector<std::unique_ptr<EquivalenceClassIndex>> classes_;
  std::unordered_set<uint64_t> signatures_;
  /// Removed graph ids (format v2 persists these).
  std::unordered_set<int> tombstones_;
  /// Count of Compact() rewrites (format v3 persists this).
  uint32_t compaction_epoch_ = 0;
  FragmentIndexStats stats_;
};

/// Cheap structural signature (vertex count, edge count, degree multiset)
/// used to skip subsets that cannot match any indexed class.
uint64_t StructureSignature(const Graph& g);

}  // namespace pis

#endif  // PIS_INDEX_FRAGMENT_INDEX_H_
