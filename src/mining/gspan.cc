#include "mining/gspan.h"

#include <algorithm>
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

// One embedding step: graph edge `edge` realizes the code entry, oriented
// from `from` to `to`; `prev` chains to the parent projection entry (stable:
// parent segments outlive the child segments built from them).
struct PDFS {
  int gid = -1;
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
  const PDFS* prev = nullptr;
};

// A code's embeddings, split into segments over disjoint, ascending gid
// ranges; within a segment embeddings are in gid order. Child segment k is
// built from parent segment k alone, so segments are scanned independently.
using Segment = std::vector<PDFS>;
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
  std::vector<int> gids;  // distinct, ascending
  Segment embeddings;     // stays empty for children at max_edges
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

// Joins the segment scans, in segment order, into the minimal children.
Children Merge(std::vector<SegmentScan>* scans) {
  Children children;
  for (SegmentScan& scan : *scans) {
    for (auto& [tuple, ext] : scan) {
      if (!ext.minimal) continue;
      Child& child = children[tuple];
      child.support.insert(child.support.end(), ext.gids.begin(),
                           ext.gids.end());
      if (!ext.embeddings.empty()) {
        child.projection.push_back(std::move(ext.embeddings));
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

// Unrolled embedding: code position -> graph edge plus dfs index -> graph
// vertex. A code has at most max_edges entries, so membership is a linear
// scan; one History is reused for every embedding of a segment.
struct History {
  std::vector<EdgeId> edges;
  std::vector<VertexId> vertex_of;

  void Unroll(const DfsCode& code, int num_vertices, const PDFS& last) {
    edges.resize(code.size());
    vertex_of.assign(num_vertices, kInvalidVertex);
    size_t i = code.size();
    for (const PDFS* p = &last; p != nullptr; p = p->prev) {
      PIS_DCHECK(i > 0);
      --i;
      edges[i] = p->edge;
      vertex_of[code[i].from] = p->from;
      vertex_of[code[i].to] = p->to;
    }
    PIS_DCHECK(i == 0);
  }
  bool HasEdge(EdgeId e) const {
    return std::find(edges.begin(), edges.end(), e) != edges.end();
  }
  bool HasVertex(VertexId v) const {
    return std::find(vertex_of.begin(), vertex_of.end(), v) != vertex_of.end();
  }
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
            if (g.VertexLabel(a) > g.VertexLabel(b)) continue;
            DfsEdge t{0, 1, g.VertexLabel(a), edge.label, g.VertexLabel(b)};
            Record(t, PDFS{gid, a, b, e, nullptr}, leaf, &verdicts,
                   &scans[k]);
          }
        }
      }
    });
    DfsCode code;
    Expand(&code, Merge(&scans));
    return std::move(patterns_);
  }

 private:
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
    Expand(code, Scan(*code, node.projection));
  }

  // Extends every embedding of `projection` by one edge, segment by
  // segment across the worker threads.
  Children Scan(const DfsCode& code, const Projection& projection) {
    const std::vector<int> rmpath = BuildRmPath(code);
    const int maxtoc = code[rmpath[0]].to;  // rightmost dfs index
    // Forward extensions grow from the rightmost vertex and from every
    // rightmost-path ancestor.
    std::vector<int> forward_from = {maxtoc};
    for (int pos : rmpath) forward_from.push_back(code[pos].from);
    const bool leaf = static_cast<int>(code.size()) + 1 >= options_.max_edges;
    Verdicts verdicts(code);
    size_t embeddings = 0;
    for (const Segment& segment : projection) embeddings += segment.size();
    const int threads =
        embeddings < kParallelEmbeddings ? 1 : options_.num_threads;
    std::vector<SegmentScan> scans(projection.size());
    ParallelFor(projection.size(), threads, [&](size_t k) {
      History history;
      for (const PDFS& p : projection[k]) {
        const Graph& g = db_.at(p.gid);
        history.Unroll(code, maxtoc + 1, p);
        const VertexId rmv = history.vertex_of[maxtoc];
        // Backward: rightmost vertex -> rightmost-path ancestors (not the
        // rightmost vertex's own parent, rmpath[0]).
        for (size_t ri = rmpath.size(); ri-- > 1;) {
          const int anc_idx = code[rmpath[ri]].from;
          const VertexId anc = history.vertex_of[anc_idx];
          const EdgeId be = g.FindEdge(rmv, anc);
          if (be == kInvalidEdge || history.HasEdge(be)) continue;
          DfsEdge t{maxtoc, anc_idx, g.VertexLabel(rmv), g.GetEdge(be).label,
                    g.VertexLabel(anc)};
          Record(t, PDFS{p.gid, rmv, anc, be, &p}, leaf, &verdicts, &scans[k]);
        }
        // Forward: from a rightmost-path vertex to an unmapped vertex.
        for (int from_idx : forward_from) {
          const VertexId from_v = history.vertex_of[from_idx];
          for (EdgeId fe : g.IncidentEdges(from_v)) {
            if (history.HasEdge(fe)) continue;
            const VertexId w = g.GetEdge(fe).Other(from_v);
            if (history.HasVertex(w)) continue;
            DfsEdge t{from_idx, maxtoc + 1, g.VertexLabel(from_v),
                      g.GetEdge(fe).label, g.VertexLabel(w)};
            Record(t, PDFS{p.gid, from_v, w, fe, &p}, leaf, &verdicts,
                   &scans[k]);
          }
        }
      }
    });
    return Merge(&scans);
  }

  const GraphDatabase& db_;
  GspanOptions options_;
  std::vector<Pattern> patterns_;
};

}  // namespace

Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options) {
  GspanMiner miner(db, options);
  return miner.Run();
}

}  // namespace pis
