// The PIS filtering phase (Algorithm 2) written once, as three steps that
// both query engines call. Shards own disjoint graph-id spaces, so the
// pass-1 intersection (line 17) and the pass-2 summed lower bound (lines
// 21-23) are shard-local; only the selectivities and the partition need
// global input, and per fragment that input is the multiset of found
// distances plus the live count. So:
//
//   ShardFilter  per shard: every fragment's range query over the shard,
//                returning the shard's intersection survivors, one
//                (distance, count) histogram per fragment and its live
//                count.
//   PlanFilter   global: sums the histograms and live counts, computes the
//                selectivities, applies the ε-filter and picks the
//                partition.
//   ShardRefine  per shard: re-issues the partition's range queries over
//                the shard and prunes the survivors by their summed lower
//                bound (ShardPartitionBound), then certifies the rest
//                against their own graphs (CertifyCandidates,
//                core/certificate.h): four more lower bounds on d(Q, G),
//                the label multiset, degree dominance, σ-budgeted
//                neighbourhood domains refined to a Hall-consistent
//                fixpoint, and the cheapest map of a spanning tree of the
//                query over those domains (a tree DP with label costs cut
//                at σ, bottom-up, then top-down to drop the domain
//                vertices no tree map within σ uses, then the refinement
//                and the joint matching once more over the narrowed
//                domains). A query that one fragment covers
//                whole skips the certificate: pass 1 already bounded every
//                survivor's exact distance within σ.
//
// PisEngine runs the three over its in-process shards; ClusterEngine runs
// ShardFilter and ShardRefine on the replicas (the shard_filter and
// shard_refine ops, server/shard_ops.h) and PlanFilter on the router.
// TopoPruneEngine (the paper's structure-only baseline) filters through
// ShardContainment on every shard instead, uncertified.
#ifndef PIS_CORE_SHARD_FILTER_H_
#define PIS_CORE_SHARD_FILTER_H_

#include <span>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pis.h"
#include "core/query_fragments.h"
#include "index/sharded_index.h"
#include "util/status.h"

namespace pis {

/// The found distances of one fragment's range query as (distance, count)
/// pairs: distances strictly ascending, counts >= 1.
using DistanceHistogram = std::vector<std::pair<double, int>>;

/// Histogram of `distances` (any order). Sorts `distances` in place, so a
/// caller can reuse one buffer across fragments.
DistanceHistogram HistogramOf(std::vector<double>* distances);
/// Adds `from`'s counts into `into`; the result does not depend on the
/// order in which several histograms are merged.
void MergeHistogram(const DistanceHistogram& from, DistanceHistogram* into);
/// Selectivity as an ascending fold over `histogram`, adding each
/// distance's term `count` times: bit-identical to the sorted sum of
/// Definition 5 over the distances it counts (the reference
/// ComputeSelectivity in tests/index_reference.h), without expanding or
/// sorting them.
double HistogramSelectivity(const DistanceHistogram& histogram, int live,
                            double sigma, double lambda);

/// One shard's pass-1 output.
struct ShardFilterResult {
  /// Live graphs resident in the shard (its share of the selectivity
  /// denominator).
  int live = 0;
  /// Ascending global ids of the live graphs every fragment hit (CQ).
  std::vector<int> survivors;
  /// One histogram per fragment, in fragment order.
  std::vector<DistanceHistogram> histograms;
};

/// Pass 1 over shard `shard`: one range query per fragment. Tombstoned
/// graphs are never survivors, even when `fragments` is empty.
Status ShardFilter(const ShardedFragmentIndex& index, int shard,
                   const std::vector<QueryFragment>& fragments, double sigma,
                   ShardFilterResult* out);

/// Plans the filter from every shard's pass-1 output (`shards`, one entry
/// per shard of the index; their histograms align with
/// `result->fragments`): fills `result->selectivities`,
/// `result->partition` and every stats counter except
/// candidates_after_partition, candidates_final and answers. range_queries
/// counts the range queries of ShardFilter and ShardRefine on every shard:
/// (fragments + partition) x shards. Of the timings it fills
/// selectivity_seconds (histogram merge and selectivities) and
/// partition_seconds (ε-filter and partition selection).
void PlanFilter(std::span<const ShardFilterResult> shards,
                const PisOptions& options, FilterResult* result);

/// Pass 2's index half over shard `shard`: sums each survivor's distances
/// over the partition fragments (positions into `fragments`, in partition
/// order) and leaves in `candidates`, ascending, the survivors whose bound
/// stays within `sigma` (the shard's share of the paper's Yp). `survivors`
/// must be this shard's ascending ShardFilter survivors.
Status ShardPartitionBound(const ShardedFragmentIndex& index, int shard,
                           const std::vector<QueryFragment>& fragments,
                           const std::vector<int>& partition,
                           const std::vector<int>& survivors, double sigma,
                           std::vector<int>* candidates);

/// Pass 2's graph half: drops from `candidates` (ids into `db`) every graph
/// whose GraphCertificate bound over `query` and `spec` exceeds `sigma`.
/// Skipped when some fragment of `fragments` covers every edge and every
/// vertex of the query: its range query returns each graph's exact
/// d(query, G) (the index holds every automorphic sequence of the
/// skeleton), so pass 1 bounded every survivor within σ and no lower bound
/// can drop one.
void CertifyCandidates(const GraphDatabase& db, const Graph& query,
                       const std::vector<QueryFragment>& fragments,
                       const DistanceSpec& spec, double sigma,
                       std::vector<int>* candidates);

/// Pass 2 over shard `shard`: ShardPartitionBound, whose candidate count is
/// `*partition_candidates` (Yp), then CertifyCandidates against `db`, the
/// database the index's ids name, with the index's spec.
Status ShardRefine(const ShardedFragmentIndex& index, const GraphDatabase& db,
                   int shard, const Graph& query,
                   const std::vector<QueryFragment>& fragments,
                   const std::vector<int>& partition,
                   const std::vector<int>& survivors, double sigma,
                   std::vector<int>* candidates,
                   size_t* partition_candidates);

/// topoPrune's filter over shard `shard`: the ascending global ids of the
/// shard's live graphs that contain a fragment of every class in
/// `class_ids` (structure containment, distance-free). One containment-list
/// intersection per class id; `class_ids` should hold each class once.
std::vector<int> ShardContainment(const ShardedFragmentIndex& index, int shard,
                                  std::span<const int> class_ids);

}  // namespace pis

#endif  // PIS_CORE_SHARD_FILTER_H_
