// Candidate verification (paper framework step 3): keep each candidate that
// has a superposition of the query within σ (the search stops at the first
// one it finds; TopKSearch, which needs the distances, minimises instead).
#ifndef PIS_CORE_VERIFIER_H_
#define PIS_CORE_VERIFIER_H_

#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"

namespace pis {

struct VerifyResult {
  /// Ids of candidate graphs with d(Q, G) <= sigma, ascending.
  std::vector<int> answers;
  double seconds = 0;
};

/// Verifies `candidates` (database ids, ascending) against the query with
/// WithinSuperimposedDistance, one after another; the answers keep their
/// order.
VerifyResult VerifyCandidates(const GraphDatabase& db, const Graph& query,
                              const std::vector<int>& candidates,
                              const DistanceSpec& spec, double sigma);

}  // namespace pis

#endif  // PIS_CORE_VERIFIER_H_
