#include "mining/gspan.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "canonical/min_dfs.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace pis {

namespace {

// Database graphs per root segment. Fixed, so the segment layout does not
// depend on the thread count; small enough that a 1000-graph database
// splits into enough segments to keep every core busy under dynamic
// scheduling.
constexpr int kSegmentGraphs = 16;

// Projections smaller than this are scanned on the calling thread: starting
// workers would cost more than the scan.
constexpr size_t kParallelEmbeddings = 4096;

// One embedding step, 12 bytes: graph `gid`'s edge `edge_dir / 2` realizes
// the code entry, oriented from the edge's u to its v when `edge_dir` is
// even and from v to u when odd; `prev` is the index of the extended entry
// in the parent segment (-1 at the root).
struct PDFS {
  int32_t gid;
  int32_t edge_dir;
  int32_t prev;
};
static_assert(sizeof(PDFS) == 12);

// The step realizing `edge` of a graph, oriented out of `from`.
PDFS Step(int gid, EdgeId e, const Edge& edge, VertexId from, int32_t prev) {
  return PDFS{gid, e * 2 + (from == edge.u ? 0 : 1), prev};
}

// A code's embeddings are split into segments over disjoint, ascending gid
// ranges; within a segment embeddings are in gid order. A child segment is
// built from one parent segment alone, so segments are scanned
// independently; `parent` records which one, since segments that extend to
// nothing are dropped and child segment k need not come from parent
// segment k.
struct Segment {
  int parent;  // index in the parent projection (unused at the root)
  std::vector<PDFS> embeddings;
};
using Projection = std::vector<Segment>;

// Strict weak order for grouping extension tuples (any total order works;
// plain lexicographic keeps map iteration deterministic).
struct DfsEdgeLess {
  bool operator()(const DfsEdge& a, const DfsEdge& b) const {
    auto ta = std::tie(a.from, a.to, a.from_label, a.edge_label, a.to_label);
    auto tb = std::tie(b.from, b.to, b.from_label, b.edge_label, b.to_label);
    return ta < tb;
  }
};

// One child tuple's share of one segment scan.
struct Extension {
  // Whether the child code is minimal; non-minimal children collect
  // nothing, since they are never reported or extended.
  bool minimal = false;
  std::vector<int> gids;         // distinct, ascending
  std::vector<PDFS> embeddings;  // stays empty for children at max_edges
};
using SegmentScan = std::map<DfsEdge, Extension, DfsEdgeLess>;

// A minimal child code: its support set and (below max_edges) projection.
struct Child {
  std::vector<int> support;
  Projection projection;
};
using Children = std::map<DfsEdge, Child, DfsEdgeLess>;

// Minimality verdicts for the children of one code, shared by the segment
// scans so each child tuple is checked with IsMinDfsCode once.
class Verdicts {
 public:
  explicit Verdicts(const DfsCode& code) : code_(code) {}

  bool IsMinimal(const DfsEdge& tuple) {
    MutexLock lock(&mu_);
    auto [it, inserted] = verdicts_.try_emplace(tuple, false);
    if (inserted) {
      DfsCode child = code_;
      child.Append(tuple);
      Result<bool> is_min = IsMinDfsCode(child);
      PIS_CHECK(is_min.ok()) << is_min.status().ToString();
      it->second = is_min.value();
    }
    return it->second;
  }

 private:
  const DfsCode& code_;
  Mutex mu_;
  std::map<DfsEdge, bool, DfsEdgeLess> verdicts_ PIS_GUARDED_BY(mu_);
};

// Files embedding `step` under child `tuple` of a segment scan. A scan
// visits embeddings in gid order, so gids stay ascending.
void Record(const DfsEdge& tuple, const PDFS& step, bool leaf,
            Verdicts* verdicts, SegmentScan* scan) {
  auto [it, inserted] = scan->try_emplace(tuple);
  Extension& ext = it->second;
  if (inserted) ext.minimal = verdicts->IsMinimal(tuple);
  if (!ext.minimal) return;
  if (ext.gids.empty() || ext.gids.back() != step.gid) {
    ext.gids.push_back(step.gid);
  }
  if (!leaf) ext.embeddings.push_back(step);
}

// Trims a finished segment scan's embedding lists to their exact size, so
// projections carry no growth slack while their children are mined.
void Trim(SegmentScan* scan) {
  for (auto& [tuple, ext] : *scan) ext.embeddings.shrink_to_fit();
}

// Joins the segment scans, in segment order, into the minimal children.
// Scan k extended parent segment k.
Children Merge(std::vector<SegmentScan>* scans) {
  Children children;
  for (size_t k = 0; k < scans->size(); ++k) {
    for (auto& [tuple, ext] : (*scans)[k]) {
      if (!ext.minimal) continue;
      Child& child = children[tuple];
      child.support.insert(child.support.end(), ext.gids.begin(),
                           ext.gids.end());
      if (!ext.embeddings.empty()) {
        child.projection.push_back(
            Segment{static_cast<int>(k), std::move(ext.embeddings)});
      }
    }
  }
  return children;
}

// Rightmost path of a code as code positions, deepest edge first.
std::vector<int> BuildRmPath(const DfsCode& code) {
  std::vector<int> rmpath;
  int old_from = -1;
  for (int i = static_cast<int>(code.size()) - 1; i >= 0; --i) {
    const DfsEdge& e = code[i];
    if (e.IsForward() && (rmpath.empty() || e.to == old_from)) {
      rmpath.push_back(i);
      old_from = e.from;
    }
  }
  return rmpath;
}

// The projections of a code's prefixes: entry i holds the embeddings of
// the first i + 1 code entries.
using ProjectionStack = std::vector<const Projection*>;

// Unrolled embedding: code position -> graph edge plus dfs index -> graph
// vertex. A code has at most max_edges entries, so membership is a linear
// scan. One History serves every embedding of one segment; its prev chain
// runs through one fixed segment per code position, so those are looked up
// once.
class History {
 public:
  // For segment `segment` of the deepest projection on `stack` (one
  // projection per entry of `code`).
  History(const DfsCode& code, int num_vertices, const ProjectionStack& stack,
          int segment)
      : code_(code),
        steps_(code.size()),
        edges_(code.size(), kInvalidEdge),
        vertex_of_(num_vertices, kInvalidVertex) {
    PIS_DCHECK(stack.size() == code.size());
    for (size_t i = code.size(); i-- > 0;) {
      const Segment& s = (*stack[i])[segment];
      steps_[i] = s.embeddings.data();
      segment = s.parent;
    }
  }

  // Unrolls entry `index` of the segment, an embedding in graph `g`.
  void Unroll(const Graph& g, int32_t index) {
    for (size_t i = code_.size(); i-- > 0;) {
      const PDFS& p = steps_[i][index];
      const EdgeId e = p.edge_dir >> 1;
      const Edge& edge = g.GetEdge(e);
      const bool u_first = (p.edge_dir & 1) == 0;
      edges_[i] = e;
      vertex_of_[code_[i].from] = u_first ? edge.u : edge.v;
      vertex_of_[code_[i].to] = u_first ? edge.v : edge.u;
      index = p.prev;
    }
    PIS_DCHECK(index == -1);
  }

  VertexId VertexOf(int dfs_index) const { return vertex_of_[dfs_index]; }
  bool HasEdge(EdgeId e) const {
    return std::find(edges_.begin(), edges_.end(), e) != edges_.end();
  }
  bool HasVertex(VertexId v) const {
    return std::find(vertex_of_.begin(), vertex_of_.end(), v) !=
           vertex_of_.end();
  }

 private:
  const DfsCode& code_;
  // Code position -> the segment entries of that position's projection.
  std::vector<const PDFS*> steps_;
  std::vector<EdgeId> edges_;
  std::vector<VertexId> vertex_of_;
};

class GspanMiner {
 public:
  GspanMiner(const GraphDatabase& db, const GspanOptions& options)
      : db_(db), options_(options) {}

  Result<std::vector<Pattern>> Run() {
    if (options_.min_support < 1) {
      return Status::InvalidArgument("min_support must be >= 1");
    }
    if (options_.max_edges < 1) {
      return Status::InvalidArgument("max_edges must be >= 1");
    }
    // Root level: single edges (la, le, lb) with la <= lb (other
    // orientations cannot start a minimal code), one scan per segment of
    // kSegmentGraphs graphs.
    const DfsCode empty;
    Verdicts verdicts(empty);
    const bool leaf = options_.max_edges == 1;
    const int num_graphs = db_.size();
    std::vector<SegmentScan> scans((num_graphs + kSegmentGraphs - 1) /
                                   kSegmentGraphs);
    ParallelFor(scans.size(), options_.num_threads, [&](size_t k) {
      const int begin = static_cast<int>(k) * kSegmentGraphs;
      const int end = std::min(num_graphs, begin + kSegmentGraphs);
      for (int gid = begin; gid < end; ++gid) {
        const Graph& g = db_.at(gid);
        for (EdgeId e = 0; e < g.NumEdges(); ++e) {
          const Edge& edge = g.GetEdge(e);
          for (bool u_first : {true, false}) {
            VertexId a = u_first ? edge.u : edge.v;
            VertexId b = u_first ? edge.v : edge.u;
            if (VertexLabel(g, a) > VertexLabel(g, b)) continue;
            DfsEdge t{0, 1, VertexLabel(g, a), EdgeLabel(edge),
                      VertexLabel(g, b)};
            Record(t, Step(gid, e, edge, a, -1), leaf, &verdicts, &scans[k]);
          }
        }
      }
      Trim(&scans[k]);
    });
    DfsCode code;
    Expand(&code, Merge(&scans));
    return std::move(patterns_);
  }

 private:
  Label VertexLabel(const Graph& g, VertexId v) const {
    return options_.use_labels ? g.VertexLabel(v) : kNoLabel;
  }
  Label EdgeLabel(const Edge& edge) const {
    return options_.use_labels ? edge.label : kNoLabel;
  }

  bool Done() const {
    return options_.max_patterns > 0 && patterns_.size() >= options_.max_patterns;
  }

  // Visits the frequent children of `code` in tuple order.
  void Expand(DfsCode* code, Children children) {
    for (auto& [tuple, child] : children) {
      if (static_cast<int>(child.support.size()) < options_.min_support) {
        continue;
      }
      code->Append(tuple);
      Grow(code, std::move(child));
      code->PopBack();
      if (Done()) return;
    }
  }

  // Reports the frequent minimal `code`, then mines its children. Patterns
  // are reported on the calling thread only, in depth-first order.
  void Grow(DfsCode* code, Child node) {
    if (static_cast<int>(code->size()) >= options_.min_edges) {
      Pattern pattern;
      pattern.code = *code;
      Result<Graph> g = code->ToGraph();
      PIS_CHECK(g.ok()) << g.status().ToString();
      pattern.graph = g.MoveValue();
      pattern.support_set = std::move(node.support);
      patterns_.push_back(std::move(pattern));
      if (Done()) return;
    }
    if (static_cast<int>(code->size()) >= options_.max_edges) return;
    // The children's entries point into node.projection, which stays on the
    // stack while they are mined.
    stack_.push_back(&node.projection);
    Expand(code, Scan(*code));
    stack_.pop_back();
  }

  // Extends every embedding of `code`'s projection (the top of stack_) by
  // one edge, segment by segment across the worker threads.
  Children Scan(const DfsCode& code) {
    const Projection& projection = *stack_.back();
    const std::vector<int> rmpath = BuildRmPath(code);
    const int maxtoc = code[rmpath[0]].to;  // rightmost dfs index
    // Forward extensions grow from the rightmost vertex and from every
    // rightmost-path ancestor.
    std::vector<int> forward_from = {maxtoc};
    for (int pos : rmpath) forward_from.push_back(code[pos].from);
    const bool leaf = static_cast<int>(code.size()) + 1 >= options_.max_edges;
    Verdicts verdicts(code);
    size_t embeddings = 0;
    for (const Segment& segment : projection) {
      embeddings += segment.embeddings.size();
    }
    const int threads =
        embeddings < kParallelEmbeddings ? 1 : options_.num_threads;
    std::vector<SegmentScan> scans(projection.size());
    ParallelFor(projection.size(), threads, [&](size_t k) {
      History history(code, maxtoc + 1, stack_, static_cast<int>(k));
      const std::vector<PDFS>& segment = projection[k].embeddings;
      for (int32_t j = 0; j < static_cast<int32_t>(segment.size()); ++j) {
        const int gid = segment[j].gid;
        const Graph& g = db_.at(gid);
        history.Unroll(g, j);
        const VertexId rmv = history.VertexOf(maxtoc);
        // Backward: rightmost vertex -> rightmost-path ancestors (not the
        // rightmost vertex's own parent, rmpath[0]).
        for (size_t ri = rmpath.size(); ri-- > 1;) {
          const int anc_idx = code[rmpath[ri]].from;
          const VertexId anc = history.VertexOf(anc_idx);
          const EdgeId be = g.FindEdge(rmv, anc);
          if (be == kInvalidEdge || history.HasEdge(be)) continue;
          const Edge& back = g.GetEdge(be);
          DfsEdge t{maxtoc, anc_idx, VertexLabel(g, rmv), EdgeLabel(back),
                    VertexLabel(g, anc)};
          Record(t, Step(gid, be, back, rmv, j), leaf, &verdicts, &scans[k]);
        }
        // Forward: from a rightmost-path vertex to an unmapped vertex.
        for (int from_idx : forward_from) {
          const VertexId from_v = history.VertexOf(from_idx);
          for (EdgeId fe : g.IncidentEdges(from_v)) {
            if (history.HasEdge(fe)) continue;
            const Edge& forward = g.GetEdge(fe);
            const VertexId w = forward.Other(from_v);
            if (history.HasVertex(w)) continue;
            DfsEdge t{from_idx, maxtoc + 1, VertexLabel(g, from_v),
                      EdgeLabel(forward), VertexLabel(g, w)};
            Record(t, Step(gid, fe, forward, from_v, j), leaf, &verdicts,
                   &scans[k]);
          }
        }
      }
      Trim(&scans[k]);
    });
    return Merge(&scans);
  }

  const GraphDatabase& db_;
  GspanOptions options_;
  // Projections of the code being grown, one per code entry (Grow holds
  // them); History::Unroll follows an embedding's prev chain through them.
  ProjectionStack stack_;
  std::vector<Pattern> patterns_;
};

}  // namespace

Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options) {
  GspanMiner miner(db, options);
  return miner.Run();
}

}  // namespace pis
