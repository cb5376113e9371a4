#include "mining/gspan.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <tuple>

#include "canonical/min_dfs.h"
#include "index/fragment_enum.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace pis {

namespace {

// Database graphs per scan segment. Fixed and small, so a 1000-graph
// database splits into enough segments to keep every worker busy under
// dynamic scheduling.
constexpr int kSegmentGraphs = 16;

// gSpan's per-entry tuple order, by which it visits a code's children.
struct DfsEdgeLess {
  bool operator()(const DfsEdge& a, const DfsEdge& b) const {
    auto ta = std::tie(a.from, a.to, a.from_label, a.edge_label, a.to_label);
    auto tb = std::tie(b.from, b.to, b.from_label, b.edge_label, b.to_label);
    return ta < tb;
  }
};

// gSpan's depth-first report order: codes compare entry by entry, and a
// prefix comes before its extensions.
struct ReportOrder {
  bool operator()(const DfsCode& a, const DfsCode& b) const {
    return std::lexicographical_compare(a.edges().begin(), a.edges().end(),
                                        b.edges().begin(), b.edges().end(),
                                        DfsEdgeLess());
  }
};

// What a skeleton grows into when one more edge joins it. A skeleton's
// canonical vertices are the dfs indices of its minimum DFS code. Adding an
// edge between canonical vertices a < b of skeleton P (b = P's vertex count
// stands for a new vertex) builds a graph whose vertices are P's canonical
// ones, plus b if new; `to_canonical` maps those onto the canonical
// vertices of the result, `skeleton`. Both depend on (P, a, b) alone, so
// each step is canonicalized once per run.
struct Transition {
  int skeleton = -1;
  std::vector<int> to_canonical;
};

// The distinct skeletons met by one run, numbered in the order first met,
// and the transitions between them; shared by every worker.
//
// Thread-safe. Entries are immutable once published and never removed, so
// a returned pointer stays valid while the table lives. The mutex is held
// only for a lookup or insert, never across MinDfsCode.
class SkeletonTable {
 public:
  // Parent of the single edge: the empty graph, grown by step
  // (kEmpty, 0, 1), whose two vertices are both new.
  static constexpr int kEmpty = -1;

  // The transition from `parent` by edge (a, b), publishing it first if no
  // worker has yet. Canonicalizes outside the lock, so two workers may
  // both compute a new transition; the first to publish wins.
  const Transition* Step(int parent, int a, int b) PIS_EXCLUDES(mu_) {
    const auto key = std::make_tuple(parent, a, b);
    Graph grown;
    {
      MutexLock lock(&mu_);
      auto it = transitions_.find(key);
      if (it != transitions_.end()) return &it->second;
      if (parent != kEmpty) grown = graphs_[parent];
    }
    while (grown.NumVertices() <= b) grown.AddVertex(kNoLabel);
    PIS_CHECK(grown.AddEdge(a, b, kNoLabel).ok());
    CanonicalOptions skeleton;
    skeleton.use_labels = false;
    skeleton.first_embedding_only = true;
    Result<CanonicalForm> form = MinDfsCode(grown, skeleton);
    PIS_CHECK(form.ok()) << form.status().ToString();
    Transition step;
    const std::vector<VertexId>& order =
        form.value().embeddings[0].vertex_order;
    step.to_canonical.resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      step.to_canonical[order[i]] = static_cast<int>(i);
    }
    Result<Graph> canonical = form.value().code.ToGraph();
    PIS_CHECK(canonical.ok()) << canonical.status().ToString();

    MutexLock lock(&mu_);
    const int next = static_cast<int>(graphs_.size());
    auto [code, inserted] =
        by_code_.try_emplace(std::move(form.value().code), next);
    if (inserted) graphs_.push_back(canonical.MoveValue());
    step.skeleton = code->second;
    return &transitions_.try_emplace(key, std::move(step)).first->second;
  }

  // Moves out every skeleton with its id, in report order.
  std::map<DfsCode, int, ReportOrder> Take() PIS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return std::move(by_code_);
  }

 private:
  Mutex mu_;
  std::map<DfsCode, int, ReportOrder> by_code_ PIS_GUARDED_BY(mu_);
  // Skeleton id -> its graph, canonical vertices as vertex ids.
  std::vector<Graph> graphs_ PIS_GUARDED_BY(mu_);
  // Node-based, so entries never move.
  std::map<std::tuple<int, int, int>, Transition> transitions_
      PIS_GUARDED_BY(mu_);
};

// One worker's front of the table. ESU emits every connected edge subset
// of two or more edges right after its prefix (the subset without its last
// edge), so the scan keeps, per subset size, the skeleton of the subset
// last emitted and the host vertex at each of its canonical vertices, and
// classifies a subset from its prefix's entry and its last edge alone.
class SkeletonScan {
 public:
  explicit SkeletonScan(SkeletonTable* table) : table_(*table) {}

  // The ids of the distinct skeletons of `g`'s connected edge subsets of
  // at most `max_edges` edges, in the order first met.
  std::vector<int> Scan(const Graph& g, int max_edges) {
    std::vector<int> ids;
    levels_.resize(max_edges + 1);
    ++stamp_;
    ForEachConnectedEdgeSubset(g, {1, max_edges},
                               [&](const std::vector<EdgeId>& subset) {
      const int id = Grow(g, subset);
      if (static_cast<size_t>(id) >= last_seen_.size()) {
        last_seen_.resize(id + 1, 0);
      }
      if (last_seen_[id] != stamp_) {
        last_seen_[id] = stamp_;
        ids.push_back(id);
      }
      return true;
    });
    return ids;
  }

 private:
  struct Level {
    int skeleton = SkeletonTable::kEmpty;
    // Canonical vertex -> host vertex.
    std::vector<VertexId> host;
  };

  // Classifies `subset` from its prefix's level; returns its skeleton.
  int Grow(const Graph& g, const std::vector<EdgeId>& subset) {
    const Edge& edge = g.GetEdge(subset.back());
    static const Level kEmptyLevel;
    const Level& prefix =
        subset.size() == 1 ? kEmptyLevel : levels_[subset.size() - 1];
    Level& level = levels_[subset.size()];
    // Canonical vertex of `v` in the prefix, or n if it is new.
    const int n = static_cast<int>(prefix.host.size());
    auto canonical = [&](VertexId v) {
      return static_cast<int>(
          std::find(prefix.host.begin(), prefix.host.end(), v) -
          prefix.host.begin());
    };
    int a = canonical(edge.u);
    int b = canonical(edge.v);
    if (a == n && b == n) b = n + 1;  // the single edge
    const Transition& step =
        Step(prefix.skeleton, n, std::min(a, b), std::max(a, b));
    level.skeleton = step.skeleton;
    level.host.resize(step.to_canonical.size());
    for (int i = 0; i < n; ++i) {
      level.host[step.to_canonical[i]] = prefix.host[i];
    }
    if (a >= n) level.host[step.to_canonical[a]] = edge.u;
    if (b >= n) level.host[step.to_canonical[b]] = edge.v;
    return level.skeleton;
  }

  // The transition from `parent`, a skeleton of n vertices, by edge
  // (a, b), through this worker's memo.
  const Transition& Step(int parent, int n, int a, int b) {
    if (next_.size() <= static_cast<size_t>(parent + 1)) {
      next_.resize(parent + 2);
    }
    std::vector<const Transition*>& row = next_[parent + 1];
    const size_t width = n + 2;
    if (row.empty()) row.resize(width * width, nullptr);
    const Transition*& step = row[a * width + b];
    if (step == nullptr) step = table_.Step(parent, a, b);
    return *step;
  }

  SkeletonTable& table_;
  // Parent skeleton + 1 -> the transitions met, at a * (n + 2) + b.
  std::vector<std::vector<const Transition*>> next_;
  std::vector<Level> levels_;
  // last_seen_[id] == stamp_ iff skeleton id was met in the current graph.
  std::vector<uint64_t> last_seen_;
  uint64_t stamp_ = 0;
};

}  // namespace

Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (options.max_edges < 1) {
    return Status::InvalidArgument("max_edges must be >= 1");
  }
  // Each worker takes the next segment of kSegmentGraphs graphs until none
  // is left, scanning them through its own memo.
  const int num_graphs = db.size();
  const int num_segments = (num_graphs + kSegmentGraphs - 1) / kSegmentGraphs;
  const int workers = std::max(1, std::min(options.num_threads, num_segments));
  SkeletonTable table;
  std::vector<std::vector<int>> skeletons_of(num_graphs);
  std::atomic<int> next_segment{0};
  ParallelFor(workers, workers, [&](size_t) {
    SkeletonScan scan(&table);
    for (int k; (k = next_segment.fetch_add(1)) < num_segments;) {
      const int end = std::min(num_graphs, (k + 1) * kSegmentGraphs);
      for (int gid = k * kSegmentGraphs; gid < end; ++gid) {
        skeletons_of[gid] = scan.Scan(db.at(gid), options.max_edges);
      }
    }
  });
  const std::map<DfsCode, int, ReportOrder> skeletons = table.Take();
  // Support sets, ascending: graphs are visited in gid order.
  std::vector<std::vector<int>> support(skeletons.size());
  for (int gid = 0; gid < num_graphs; ++gid) {
    for (int id : skeletons_of[gid]) support[id].push_back(gid);
  }
  std::vector<Pattern> patterns;
  for (const auto& [code, id] : skeletons) {
    if (static_cast<int>(support[id].size()) < options.min_support ||
        static_cast<int>(code.size()) < options.min_edges) {
      continue;
    }
    if (options.max_patterns > 0 && patterns.size() >= options.max_patterns) {
      break;
    }
    Pattern pattern;
    pattern.code = code;
    Result<Graph> g = code.ToGraph();
    PIS_CHECK(g.ok()) << g.status().ToString();
    pattern.graph = g.MoveValue();
    pattern.support_set = std::move(support[id]);
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

}  // namespace pis
