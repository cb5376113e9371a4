#include "index/skeleton_table.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace pis {

const SkeletonTable::Transition* SkeletonTable::Step(int parent, int a,
                                                     int b) {
  const auto key = std::make_tuple(parent, a, b);
  Graph grown;
  {
    MutexLock lock(&mu_);
    auto it = transitions_.find(key);
    if (it != transitions_.end()) return &it->second;
    if (parent != kEmpty) grown = skeletons_[parent].graph;
  }
  while (grown.NumVertices() <= b) grown.AddVertex(kNoLabel);
  PIS_CHECK(grown.AddEdge(a, b, kNoLabel).ok());
  Result<CanonicalForm> form =
      MinDfsCode(grown, {.first_embedding_only = true});
  PIS_CHECK(form.ok()) << form.status().ToString();
  Transition step;
  const CanonicalEmbedding& realized = form.value().embeddings[0];
  step.to_canonical.resize(realized.vertex_order.size());
  for (size_t i = 0; i < realized.vertex_order.size(); ++i) {
    step.to_canonical[realized.vertex_order[i]] = static_cast<int>(i);
  }
  step.to_position.resize(realized.edge_order.size());
  for (size_t k = 0; k < realized.edge_order.size(); ++k) {
    step.to_position[realized.edge_order[k]] = static_cast<int>(k);
  }
  Skeleton fresh;
  fresh.key = form.value().Key();
  Result<Graph> canonical = form.value().code.ToGraph();
  PIS_CHECK(canonical.ok()) << canonical.status().ToString();
  fresh.graph = canonical.MoveValue();

  MutexLock lock(&mu_);
  ++canonicalizations_;
  const int next = static_cast<int>(skeletons_.size());
  auto [code, inserted] = by_code_.try_emplace(form.value().code, next);
  if (inserted) {
    fresh.code = std::move(form.value().code);
    skeletons_.push_back(std::move(fresh));
  }
  step.skeleton = code->second;
  return &transitions_.try_emplace(key, std::move(step)).first->second;
}

const Skeleton& SkeletonTable::skeleton(int id) const {
  MutexLock lock(&mu_);
  return skeletons_[id];
}

const std::vector<CanonicalEmbedding>& SkeletonTable::Automorphisms(int id) {
  const Graph* graph;
  {
    MutexLock lock(&mu_);
    auto it = automorphisms_.find(id);
    if (it != automorphisms_.end()) return it->second;
    graph = &skeletons_[id].graph;
  }
  Result<CanonicalForm> form = MinDfsCode(*graph);
  PIS_CHECK(form.ok()) << form.status().ToString();
  MutexLock lock(&mu_);
  ++canonicalizations_;
  return automorphisms_.try_emplace(id, std::move(form.value().embeddings))
      .first->second;
}

int SkeletonTable::num_skeletons() const {
  MutexLock lock(&mu_);
  return static_cast<int>(skeletons_.size());
}

size_t SkeletonTable::num_transitions() const {
  MutexLock lock(&mu_);
  return transitions_.size();
}

size_t SkeletonTable::num_canonicalizations() const {
  MutexLock lock(&mu_);
  return canonicalizations_;
}

const SkeletonScan::Level& SkeletonScan::Grow(
    const Graph& g, const std::vector<EdgeId>& subset) {
  static const Level kEmptyLevel;
  const Edge& edge = g.GetEdge(subset.back());
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
  const SkeletonTable::Transition& step =
      Step(prefix.skeleton, n, std::min(a, b), std::max(a, b));
  level.skeleton = step.skeleton;
  level.host.resize(step.to_canonical.size());
  for (int i = 0; i < n; ++i) {
    level.host[step.to_canonical[i]] = prefix.host[i];
  }
  if (a >= n) level.host[step.to_canonical[a]] = edge.u;
  if (b >= n) level.host[step.to_canonical[b]] = edge.v;
  const size_t m = prefix.edges.size();
  level.edges.resize(m + 1);
  for (size_t j = 0; j < m; ++j) {
    level.edges[step.to_position[j]] = prefix.edges[j];
  }
  level.edges[step.to_position[m]] = subset.back();
  return level;
}

const SkeletonTable::Transition& SkeletonScan::Step(int parent, int n, int a,
                                                    int b) {
  if (next_.size() <= static_cast<size_t>(parent + 1)) {
    next_.resize(parent + 2);
  }
  std::vector<const SkeletonTable::Transition*>& row = next_[parent + 1];
  const size_t width = n + 2;
  if (row.empty()) row.resize(width * width, nullptr);
  const SkeletonTable::Transition*& step = row[a * width + b];
  if (step == nullptr) step = table_.Step(parent, a, b);
  return *step;
}

}  // namespace pis
