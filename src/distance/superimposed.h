// Minimum superimposed distance (Definition 1 of the paper): the best
// alignment of a query graph inside a target graph under a cost model.
#ifndef PIS_DISTANCE_SUPERIMPOSED_H_
#define PIS_DISTANCE_SUPERIMPOSED_H_

#include "graph/graph.h"
#include "isomorphism/cost_search.h"

namespace pis {

/// d(Q, G) = min over subgraphs Q' ⊆ G with Q' ≅ Q of cost(Q, Q'), searched
/// with branch-and-bound pruning at `bound` (inclusive). Returns
/// kInfiniteDistance when Q is not contained in G or every superposition
/// exceeds the bound.
double MinSuperimposedDistance(const Graph& query, const Graph& target,
                               const SuperimposeCostModel& model,
                               double bound = kInfiniteDistance);

/// Decision form: d(Q, G) ≤ sigma? Stops at the first superposition within
/// sigma instead of searching for the minimum.
bool WithinSuperimposedDistance(const Graph& query, const Graph& target,
                                const SuperimposeCostModel& model, double sigma);

/// Exact minimum distance between two *isomorphic* graphs (min over all
/// superpositions); kInfiniteDistance if they are not isomorphic. Used for
/// fragment-vs-fragment distances and as a test oracle.
double IsomorphicDistance(const Graph& a, const Graph& b,
                          const SuperimposeCostModel& model);

/// Brute-force oracle: enumerates every embedding with VF2 and scores each
/// one. Exponentially slower than MinSuperimposedDistance; for tests and
/// the ablation benchmark only.
double MinSuperimposedDistanceBruteForce(const Graph& query, const Graph& target,
                                         const SuperimposeCostModel& model);

}  // namespace pis

#endif  // PIS_DISTANCE_SUPERIMPOSED_H_
