#include "isomorphism/vf2.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace pis {

namespace {

// Connectivity-first matching order: start at the highest-degree vertex,
// then repeatedly pick the unvisited vertex with the most already-ordered
// neighbors (ties broken by degree). Keeps the partial pattern connected so
// adjacency checks prune early.
std::vector<VertexId> BuildOrder(const Graph& pattern) {
  int n = pattern.NumVertices();
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<int> placed_neighbors(n, 0);
  for (int step = 0; step < n; ++step) {
    VertexId best = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == kInvalidVertex ||
          placed_neighbors[v] > placed_neighbors[best] ||
          (placed_neighbors[v] == placed_neighbors[best] &&
           pattern.Degree(v) > pattern.Degree(best))) {
        best = v;
      }
    }
    placed[best] = true;
    order.push_back(best);
    for (EdgeId e : pattern.IncidentEdges(best)) {
      placed_neighbors[pattern.GetEdge(e).Other(best)]++;
    }
  }
  return order;
}

}  // namespace

Vf2Matcher::Vf2Matcher(const Graph& pattern, const Graph& target)
    : pattern_(pattern), target_(target) {
  order_ = BuildOrder(pattern_);
  order_parent_.assign(order_.size(), -1);
  std::vector<int> pos(pattern_.NumVertices(), -1);
  for (size_t i = 0; i < order_.size(); ++i) pos[order_[i]] = static_cast<int>(i);
  for (size_t i = 0; i < order_.size(); ++i) {
    for (EdgeId e : pattern_.IncidentEdges(order_[i])) {
      VertexId nb = pattern_.GetEdge(e).Other(order_[i]);
      if (pos[nb] < static_cast<int>(i)) {
        order_parent_[i] = pos[nb];
        break;
      }
    }
  }
  core_.assign(pattern_.NumVertices(), kInvalidVertex);
  target_used_.assign(target_.NumVertices(), false);
}

bool Vf2Matcher::Feasible(VertexId pv, VertexId tv) const {
  if (target_used_[tv]) return false;
  if (target_.Degree(tv) < pattern_.Degree(pv)) return false;
  // Every mapped pattern neighbor must be a target neighbor.
  for (EdgeId e : pattern_.IncidentEdges(pv)) {
    VertexId mapped = core_[pattern_.GetEdge(e).Other(pv)];
    if (mapped == kInvalidVertex) continue;
    if (target_.FindEdge(tv, mapped) == kInvalidEdge) return false;
  }
  return true;
}

bool Vf2Matcher::Recurse(int depth, const EmbeddingCallback& cb, size_t* count) {
  if (depth == static_cast<int>(order_.size())) {
    ++*count;
    return cb(core_);
  }
  VertexId pv = order_[depth];
  // Candidates: neighbors of the mapped parent when one exists (connected
  // extension), otherwise every target vertex.
  if (order_parent_[depth] >= 0) {
    VertexId anchor = core_[order_[order_parent_[depth]]];
    for (EdgeId e : target_.IncidentEdges(anchor)) {
      VertexId tv = target_.GetEdge(e).Other(anchor);
      if (!Feasible(pv, tv)) continue;
      core_[pv] = tv;
      target_used_[tv] = true;
      bool keep_going = Recurse(depth + 1, cb, count);
      core_[pv] = kInvalidVertex;
      target_used_[tv] = false;
      if (!keep_going) return false;
    }
  } else {
    for (VertexId tv = 0; tv < target_.NumVertices(); ++tv) {
      if (!Feasible(pv, tv)) continue;
      core_[pv] = tv;
      target_used_[tv] = true;
      bool keep_going = Recurse(depth + 1, cb, count);
      core_[pv] = kInvalidVertex;
      target_used_[tv] = false;
      if (!keep_going) return false;
    }
  }
  return true;
}

bool Vf2Matcher::FindFirst(std::vector<VertexId>* mapping) {
  if (pattern_.NumVertices() > target_.NumVertices() ||
      pattern_.NumEdges() > target_.NumEdges()) {
    return false;
  }
  if (pattern_.NumVertices() == 0) {
    if (mapping != nullptr) mapping->clear();
    return true;
  }
  bool found = false;
  size_t count = 0;
  Recurse(0, [&](const std::vector<VertexId>& m) {
    found = true;
    if (mapping != nullptr) *mapping = m;
    return false;  // stop after the first embedding
  }, &count);
  return found;
}

size_t Vf2Matcher::EnumerateAll(const EmbeddingCallback& cb) {
  if (pattern_.NumVertices() > target_.NumVertices() ||
      pattern_.NumEdges() > target_.NumEdges()) {
    return 0;
  }
  if (pattern_.NumVertices() == 0) {
    std::vector<VertexId> empty;
    cb(empty);
    return 1;
  }
  size_t count = 0;
  Recurse(0, cb, &count);
  return count;
}

bool IsSubgraph(const Graph& pattern, const Graph& target) {
  Vf2Matcher matcher(pattern, target);
  return matcher.FindFirst();
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  return IsSubgraph(a, b);
}

std::vector<std::vector<VertexId>> EnumerateAutomorphisms(const Graph& g) {
  std::vector<std::vector<VertexId>> result;
  Vf2Matcher matcher(g, g);
  matcher.EnumerateAll([&](const std::vector<VertexId>& m) {
    result.push_back(m);
    return true;
  });
  return result;
}

}  // namespace pis
