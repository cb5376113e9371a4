// One-call front door to the feature pipeline every index-building binary
// shares: gSpan over the database's skeletons at a relative minimum
// support (parallel over gid segments; the features do not depend on the
// thread count), then gIndex discriminative selection. pis_cli build and
// pis_server both call this, so the two binaries can never drift on how an
// index gets built from the same flags. (bench_common keeps its own
// variant: its support rounding differs deliberately to pin the paper
// workloads.)
#ifndef PIS_MINING_PIPELINE_H_
#define PIS_MINING_PIPELINE_H_

#include <string>
#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"
#include "util/status.h"

namespace pis {

/// Mines skeleton features of up to `max_fragment_edges` (>= 1) edges at
/// relative support `min_support_fraction` (in [0, 1]; truncated to an
/// absolute count, floor 1) and keeps the gIndex-discriminative subset at
/// ratio `gamma`. gSpan runs on `num_threads` threads (0 = all hardware);
/// the result is the same for every thread count. Out-of-range arguments
/// return InvalidArgument.
Result<std::vector<Graph>> MineDiscriminativeFeatures(
    const GraphDatabase& db, int max_fragment_edges,
    double min_support_fraction, double gamma, int num_threads = 0);

/// Maps the CLI distance name ("mutation" | "linear") to its spec.
Result<DistanceSpec> DistanceSpecFromName(const std::string& name);

}  // namespace pis

#endif  // PIS_MINING_PIPELINE_H_
