// The traced run: replays a workload's query set down the layer ladder with
// one client, then a short open-loop write replay, timing each call into a
// layer's public functions from here and recording it as a span.
//
// For every query (one trace id) the ladder calls, innermost first:
//
//   core.enumerate       EnumerateIndexedQueryFragments
//   index.range_query    FragmentIndex::RangeQuery, one span per fragment
//                        (covering the fragment's query on every shard)
//   core.filter          ShardedPisEngine::Filter on the host's snapshot,
//                        with pass1/partition/pass2 children laid out from
//                        the QueryStats it returns
//   isomorphism.verify   VerifyCandidates over the filter's candidates
//   server.host_search   EngineHost::Search
//   server.rpc           the same query through pis_server on loopback
//   cluster.search       ClusterEngine::Search (children: the engine's own
//                        shard_query / merge / filter / shard_verify spans)
//   router.rpc           the same query through the RouterServer
//
// all under one root span `ladder`. Each call is a separate execution of
// the same query, so a layer is reconciled against the calls into the
// layers beneath it (see kReconcileTolerance and README.md); the root's
// self time is what the span bookkeeping itself cost.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <vector>

#include "bench.h"
#include "deploy.h"
#include "load.h"
#include "spans.h"

namespace pisbench {

/// Relative tolerance within which a layer must be accounted for by the
/// layers beneath it (and within which a wrapping layer may read faster
/// than the layer it wraps).
inline constexpr double kReconcileTolerance = 0.2;

struct LadderOutcome {
  OpCount ops;          ///< answer checks and writes; failures included
  bool reconciled = false;
};

/// Needs a deployment with both the server and the cluster. Spends about
/// three quarters of `seconds` (and at least 8 queries) on the query ladder
/// and the rest on writes.
LadderOutcome RunTracedLadder(Deployment& d,
                              const std::vector<pis::Graph>& queries,
                              const std::vector<std::vector<int>>& expected,
                              double seconds, SpanLog* log,
                              MetricSet* metrics);

}  // namespace pisbench

#endif  // PERFBENCH_LADDER_H_
