#include "canonical/min_dfs.h"

#include <algorithm>

#include "util/logging.h"

namespace pis {

namespace {

// One partial realization of the (globally minimal) code prefix.
struct State {
  std::vector<VertexId> order;   // dfs index -> original vertex
  std::vector<EdgeId> edge_order;  // code position -> original edge
  std::vector<int> parent;       // dfs index -> parent dfs index (-1 for root)
  std::vector<int> dfs_index;    // original vertex -> dfs index or -1
  std::vector<bool> edge_used;   // original edge -> consumed by the code
};

struct Candidate {
  DfsEdge edge;
  EdgeId graph_edge = kInvalidEdge;
  VertexId new_vertex = kInvalidVertex;  // only for forward edges
};

// Rightmost path as dfs indices from rightmost vertex up to the root.
std::vector<int> RightmostPath(const State& s) {
  std::vector<int> path;
  int idx = static_cast<int>(s.order.size()) - 1;
  while (idx >= 0) {
    path.push_back(idx);
    idx = s.parent[idx];
  }
  return path;
}

void CollectCandidates(const Graph& g, const State& s,
                       std::vector<Candidate>* out) {
  std::vector<int> rmpath = RightmostPath(s);  // [rm, ..., root]
  int rm_idx = rmpath.front();
  VertexId rm_vertex = s.order[rm_idx];
  std::vector<bool> on_rmpath(s.order.size(), false);
  for (int idx : rmpath) on_rmpath[idx] = true;

  // Backward edges: from the rightmost vertex to a rightmost-path ancestor.
  for (EdgeId e : g.IncidentEdges(rm_vertex)) {
    if (s.edge_used[e]) continue;
    VertexId w = g.GetEdge(e).Other(rm_vertex);
    int w_idx = s.dfs_index[w];
    if (w_idx < 0 || !on_rmpath[w_idx]) continue;
    if (w_idx == s.parent[rm_idx]) continue;  // the tree edge itself
    out->push_back({DfsEdge{rm_idx, w_idx}, e});
  }
  // Forward edges: from any rightmost-path vertex to an unmapped vertex.
  int next_idx = static_cast<int>(s.order.size());
  for (int idx : rmpath) {
    VertexId v = s.order[idx];
    for (EdgeId e : g.IncidentEdges(v)) {
      if (s.edge_used[e]) continue;
      VertexId w = g.GetEdge(e).Other(v);
      if (s.dfs_index[w] >= 0) continue;
      out->push_back({DfsEdge{idx, next_idx}, e, w});
    }
  }
}

State ApplyCandidate(const State& s, const Candidate& c) {
  State next = s;
  next.edge_used[c.graph_edge] = true;
  next.edge_order.push_back(c.graph_edge);
  if (c.new_vertex != kInvalidVertex) {
    next.dfs_index[c.new_vertex] = static_cast<int>(next.order.size());
    next.order.push_back(c.new_vertex);
    next.parent.push_back(c.edge.from);
  }
  return next;
}

}  // namespace

std::string CanonicalForm::Key() const {
  int n = 0;
  if (!embeddings.empty()) n = static_cast<int>(embeddings[0].vertex_order.size());
  // reserve + append rather than an operator+ chain: GCC 12 at -O3 flags
  // the chain with a false-positive -Wrestrict.
  const std::string vertices = std::to_string(n);
  const std::string code_key = code.ToKey();
  std::string key;
  key.reserve(vertices.size() + code_key.size() + 2);
  key.append("n").append(vertices).append("|").append(code_key);
  return key;
}

Result<CanonicalForm> MinDfsCode(const Graph& g, const CanonicalOptions& options) {
  if (g.NumVertices() == 0) {
    return Status::InvalidArgument("cannot canonicalize the empty graph");
  }
  if (!g.IsConnected()) {
    return Status::InvalidArgument("cannot canonicalize a disconnected graph");
  }
  CanonicalForm form;
  if (g.NumEdges() == 0) {
    // Single vertex (connected, no edges).
    CanonicalEmbedding emb;
    emb.vertex_order = {0};
    form.embeddings.push_back(std::move(emb));
    return form;
  }

  // Seed states: every edge in both orientations. Without labels each of
  // them starts the code with the same tuple, (0,1).
  form.code.Append(DfsEdge{0, 1});
  std::vector<State> states;
  states.reserve(2 * static_cast<size_t>(g.NumEdges()));
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& edge = g.GetEdge(e);
    for (bool u_root : {true, false}) {
      VertexId a = u_root ? edge.u : edge.v;
      VertexId b = u_root ? edge.v : edge.u;
      State s;
      s.order = {a, b};
      s.edge_order = {e};
      s.parent = {-1, 0};
      s.dfs_index.assign(g.NumVertices(), -1);
      s.dfs_index[a] = 0;
      s.dfs_index[b] = 1;
      s.edge_used.assign(g.NumEdges(), false);
      s.edge_used[e] = true;
      states.push_back(std::move(s));
    }
  }

  // Level-synchronous extension: at each level keep exactly the states that
  // realize the globally minimal next tuple.
  for (int level = 1; level < g.NumEdges(); ++level) {
    DfsEdge best{};
    bool have_best = false;
    std::vector<std::pair<size_t, Candidate>> winners;
    std::vector<Candidate> candidates;
    for (size_t si = 0; si < states.size(); ++si) {
      candidates.clear();
      CollectCandidates(g, states[si], &candidates);
      for (const Candidate& c : candidates) {
        int cmp = have_best ? CompareDfsEdges(c.edge, best) : -1;
        if (cmp < 0) {
          best = c.edge;
          have_best = true;
          winners.clear();
          winners.emplace_back(si, c);
        } else if (cmp == 0) {
          winners.emplace_back(si, c);
        }
      }
    }
    PIS_CHECK(have_best) << "min DFS code search stalled (internal invariant)";
    form.code.Append(best);
    std::vector<State> next_states;
    next_states.reserve(winners.size());
    for (const auto& [si, c] : winners) {
      next_states.push_back(ApplyCandidate(states[si], c));
    }
    states.swap(next_states);
  }

  size_t keep = options.first_embedding_only ? 1 : states.size();
  for (size_t i = 0; i < keep; ++i) {
    CanonicalEmbedding emb;
    emb.vertex_order = std::move(states[i].order);
    emb.edge_order = std::move(states[i].edge_order);
    form.embeddings.push_back(std::move(emb));
  }
  return form;
}

}  // namespace pis
