#include "core/partition.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/logging.h"

namespace pis {

namespace {

// Sorted-vector intersection test.
bool VerticesIntersect(const std::vector<VertexId>& a,
                       const std::vector<VertexId>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

OverlapGraph::OverlapGraph(const std::vector<WeightedFragment>& fragments) {
  const int n = static_cast<int>(fragments.size());
  weights_.resize(n);
  words_ = (static_cast<size_t>(n) + 63) / 64;
  rows_.assign(static_cast<size_t>(n) * words_, 0);
  for (int i = 0; i < n; ++i) {
    weights_[i] = fragments[i].weight;
    PIS_DCHECK(std::is_sorted(fragments[i].vertices.begin(),
                              fragments[i].vertices.end()));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (VerticesIntersect(fragments[i].vertices, fragments[j].vertices)) {
        rows_[Word(i, j)] |= uint64_t{1} << (j % 64);
        rows_[Word(j, i)] |= uint64_t{1} << (i % 64);
      }
    }
  }
}

bool OverlapGraph::IsIndependent(const std::vector<int>& set) const {
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      if (Adjacent(set[i], set[j])) return false;
    }
  }
  return true;
}

double OverlapGraph::TotalWeight(const std::vector<int>& set) const {
  double total = 0;
  for (int v : set) total += weights_[v];
  return total;
}

std::vector<int> GreedyMwis(const OverlapGraph& graph) {
  std::vector<int> selected;
  std::vector<bool> alive(graph.size(), true);
  while (true) {
    int best = -1;
    for (int v = 0; v < graph.size(); ++v) {
      if (!alive[v]) continue;
      if (best < 0 || graph.weight(v) > graph.weight(best)) best = v;
    }
    if (best < 0) break;
    selected.push_back(best);
    alive[best] = false;
    graph.ForEachNeighbor(best, [&alive](int nb) { alive[nb] = false; });
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<int> EnhancedGreedyMwis(const OverlapGraph& graph, int k) {
  PIS_CHECK(k >= 1);
  std::vector<int> selected;
  std::vector<bool> alive(graph.size(), true);
  // One round: maximum-weight independent set of size <= k among alive
  // vertices, found by bounded DFS enumeration.
  std::vector<int> best_set;
  double best_weight;
  std::vector<int> current;
  std::function<void(int, double)> enumerate = [&](int start, double weight) {
    if (weight > best_weight) {
      best_weight = weight;
      best_set = current;
    }
    if (static_cast<int>(current.size()) >= k) return;
    for (int v = start; v < graph.size(); ++v) {
      if (!alive[v]) continue;
      bool independent = true;
      for (int s : current) {
        if (graph.Adjacent(s, v)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      current.push_back(v);
      enumerate(v + 1, weight + graph.weight(v));
      current.pop_back();
    }
  };
  while (true) {
    best_set.clear();
    best_weight = 0;
    current.clear();
    enumerate(0, 0);
    if (best_set.empty()) break;
    for (int v : best_set) {
      selected.push_back(v);
      alive[v] = false;
      graph.ForEachNeighbor(v, [&alive](int nb) { alive[nb] = false; });
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

namespace {

// Branch and bound: branch on the highest-weight undecided vertex; bound by
// the sum of undecided weights.
struct ExactSolver {
  const OverlapGraph& graph;
  std::vector<int> best_set;
  double best_weight = -1;
  std::vector<int> current;
  std::vector<int> excluded;  // exclusion depth marker, -1 = free

  explicit ExactSolver(const OverlapGraph& g) : graph(g) {
    excluded.assign(g.size(), -1);
  }

  void Solve(double weight) {
    double remaining = 0;
    int pivot = -1;
    for (int v = 0; v < graph.size(); ++v) {
      if (excluded[v] >= 0) continue;
      remaining += graph.weight(v);
      if (pivot < 0 || graph.weight(v) > graph.weight(pivot)) pivot = v;
    }
    if (weight > best_weight) {
      best_weight = weight;
      best_set = current;
    }
    if (pivot < 0 || weight + remaining <= best_weight) return;
    int depth = static_cast<int>(current.size());
    // Branch 1: include pivot.
    std::vector<int> newly_excluded = {pivot};
    excluded[pivot] = depth;
    graph.ForEachNeighbor(pivot, [&](int nb) {
      if (excluded[nb] < 0) {
        excluded[nb] = depth;
        newly_excluded.push_back(nb);
      }
    });
    current.push_back(pivot);
    Solve(weight + graph.weight(pivot));
    current.pop_back();
    for (int v : newly_excluded) excluded[v] = -1;
    // Branch 2: exclude pivot.
    excluded[pivot] = depth;
    Solve(weight);
    excluded[pivot] = -1;
  }
};

}  // namespace

std::vector<int> ExactMwis(const OverlapGraph& graph) {
  ExactSolver solver(graph);
  solver.Solve(0);
  std::sort(solver.best_set.begin(), solver.best_set.end());
  return solver.best_set;
}

std::vector<int> SingleBestMwis(const OverlapGraph& graph) {
  int best = -1;
  for (int v = 0; v < graph.size(); ++v) {
    if (best < 0 || graph.weight(v) > graph.weight(best)) best = v;
  }
  if (best < 0) return {};
  return {best};
}

std::vector<int> SelectPartition(const OverlapGraph& graph,
                                 PartitionAlgorithm algorithm, int enhanced_k) {
  switch (algorithm) {
    case PartitionAlgorithm::kGreedy:
      return GreedyMwis(graph);
    case PartitionAlgorithm::kEnhancedGreedy:
      return EnhancedGreedyMwis(graph, enhanced_k);
    case PartitionAlgorithm::kExact:
      return ExactMwis(graph);
    case PartitionAlgorithm::kSingleBest:
      return SingleBestMwis(graph);
  }
  return {};
}

}  // namespace pis
