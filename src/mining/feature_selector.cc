#include "mining/feature_selector.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "isomorphism/vf2.h"

namespace pis {

namespace {

// Intersects `acc` (sorted) with `other` (sorted) in place.
void IntersectInto(std::vector<int>* acc, const std::vector<int>& other) {
  std::vector<int> out;
  std::set_intersection(acc->begin(), acc->end(), other.begin(), other.end(),
                        std::back_inserter(out));
  acc->swap(out);
}

}  // namespace

Result<std::vector<size_t>> SelectDiscriminativeFeatures(
    const std::vector<Pattern>& patterns, int db_size,
    const FeatureSelectorOptions& options) {
  // NaN fails every comparison, so `gamma < 1.0` alone would let it through
  // and silently drop every multi-edge feature.
  if (!std::isfinite(options.gamma) || options.gamma < 1.0) {
    return Status::InvalidArgument("gamma must be finite and >= 1");
  }
  // Ascending size; stable to keep miner order within a size class.
  std::vector<size_t> order(patterns.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return patterns[a].num_edges() < patterns[b].num_edges();
  });

  std::vector<size_t> selected;
  for (size_t idx : order) {
    if (options.max_features > 0 && selected.size() >= options.max_features) break;
    const Pattern& p = patterns[idx];
    if (p.num_edges() <= options.always_keep_max_edges) {
      selected.push_back(idx);
      continue;
    }
    // Support of the conjunction of selected subpatterns: start from the
    // whole database and intersect.
    std::vector<int> conj(db_size);
    std::iota(conj.begin(), conj.end(), 0);
    for (size_t sidx : selected) {
      const Pattern& f = patterns[sidx];
      if (f.num_edges() >= p.num_edges()) continue;
      if (static_cast<int>(conj.size()) < p.support() * options.gamma) break;
      if (!IsSubgraph(f.graph, p.graph)) continue;
      IntersectInto(&conj, f.support_set);
    }
    if (static_cast<double>(conj.size()) >=
        options.gamma * static_cast<double>(p.support())) {
      selected.push_back(idx);
    }
  }
  return selected;
}

}  // namespace pis
