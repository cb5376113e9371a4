#include "mining/pipeline.h"

#include <algorithm>
#include <cmath>

#include "mining/feature_selector.h"
#include "mining/gspan.h"
#include "util/parallel.h"

namespace pis {

Result<std::vector<Graph>> MineDiscriminativeFeatures(
    const GraphDatabase& db, int max_fragment_edges,
    double min_support_fraction, double gamma, int num_threads) {
  // Checked before the cast below, which is undefined for NaN or huge
  // values.
  if (!std::isfinite(min_support_fraction) || min_support_fraction < 0 ||
      min_support_fraction > 1) {
    return Status::InvalidArgument("min_support must be in [0, 1]");
  }
  if (max_fragment_edges < 1) {
    return Status::InvalidArgument("max_fragment_edges must be >= 1");
  }
  GspanOptions mine;
  // Floor, with a tolerance for the product's rounding error (0.29 * 100
  // is 28.999999999999996).
  mine.min_support = std::max(
      1, static_cast<int>(std::floor(min_support_fraction * db.size() + 1e-9)));
  mine.max_edges = max_fragment_edges;
  mine.num_threads = num_threads <= 0 ? HardwareThreads() : num_threads;
  PIS_ASSIGN_OR_RETURN(std::vector<Pattern> patterns,
                       MineFrequentSubgraphs(db, mine));
  FeatureSelectorOptions select;
  select.gamma = gamma;
  PIS_ASSIGN_OR_RETURN(
      std::vector<size_t> selected,
      SelectDiscriminativeFeatures(patterns, db.size(), select));
  std::vector<Graph> features;
  features.reserve(selected.size());
  for (size_t idx : selected) features.push_back(patterns[idx].graph);
  return features;
}

Result<DistanceSpec> DistanceSpecFromName(const std::string& name) {
  if (name == "mutation") return DistanceSpec::EdgeMutation();
  if (name == "linear") return DistanceSpec::EdgeLinear();
  return Status::InvalidArgument("unknown --distance " + name);
}

}  // namespace pis
