#include "core/filter_impl.h"

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "core/selectivity.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pis::internal {

Status RunPisFilterCore(int db_size, const std::unordered_set<int>* tombstones,
                        const PisOptions& options,
                        const FragmentDistFn& fragment_dists,
                        FilterResult* resultp) {
  FilterResult& result = *resultp;
  const double sigma = options.sigma;
  result.stats.fragments_enumerated = result.fragments.size();

  // Pass 1 (Algorithm 2 lines 6-18): one range query per fragment; keep CQ
  // and the selectivity. The per-graph maps of fragments that survive the
  // ε-filter (line 5) are retained for pass 2 — the partition can only draw
  // from kept fragments, so their range queries never re-run. Maps of
  // dropped fragments are discarded to bound memory by `fragments_kept`.
  // Tombstoned slots start dead: they must not surface as candidates even
  // when the query enumerates no fragments (no pruning), and the
  // selectivity denominator below is the count of *live* graphs — both
  // exactly as in an index rebuilt without the removed graphs.
  std::vector<char> alive(db_size, 1);
  size_t alive_count = db_size;
  if (tombstones != nullptr) {
    for (int gid : *tombstones) {
      if (gid >= 0 && gid < db_size && alive[gid]) {
        alive[gid] = 0;
        --alive_count;
      }
    }
  }
  const int live_size = static_cast<int>(alive_count);

  Timer pass1_timer;
  std::vector<double> selectivities(result.fragments.size(), 0.0);
  std::vector<int> kept;  // positions into result.fragments
  std::unordered_map<int, std::unordered_map<int, double>> kept_dists;
  std::unordered_map<int, double> dist;
  std::vector<double> found;
  for (size_t fi = 0; fi < result.fragments.size(); ++fi) {
    dist.clear();
    PIS_RETURN_NOT_OK(fragment_dists(fi, sigma, &dist, &result.stats));
    found.clear();
    found.reserve(dist.size());
    for (const auto& [gid, d] : dist) found.push_back(d);
    Timer selectivity_timer;
    selectivities[fi] =
        ComputeSelectivity(found, live_size, sigma, options.lambda);
    result.stats.selectivity_seconds += selectivity_timer.Seconds();
    // CQ <- CQ ∩ T (line 17). `dist` holds live graphs only, so covering
    // every live graph means nothing can be dropped.
    if (dist.size() < static_cast<size_t>(live_size)) {
      for (int gid = 0; gid < db_size; ++gid) {
        if (alive[gid] && dist.count(gid) == 0) {
          alive[gid] = 0;
          --alive_count;
        }
      }
    }
    if (selectivities[fi] > options.epsilon) {
      kept.push_back(static_cast<int>(fi));
      kept_dists.emplace(static_cast<int>(fi), std::move(dist));
      dist = {};
    }
  }
  result.stats.candidates_after_intersection = alive_count;
  result.stats.fragments_kept = kept.size();
  result.stats.pass1_seconds = pass1_timer.Seconds();
  result.selectivities = std::move(selectivities);

  // Overlapping-relation graph and the partition (lines 19-20).
  Timer partition_timer;
  std::vector<WeightedFragment> weighted;
  weighted.reserve(kept.size());
  for (int fi : kept) {
    WeightedFragment wf;
    wf.weight = result.selectivities[fi];
    wf.vertices = result.fragments[fi].vertices;
    weighted.push_back(std::move(wf));
  }
  OverlapGraph overlap(weighted);
  std::vector<int> partition_local = SelectPartition(
      overlap, options.partition_algorithm, options.enhanced_k);
  result.partition.reserve(partition_local.size());
  for (int pi : partition_local) result.partition.push_back(kept[pi]);
  result.stats.partition_size = result.partition.size();
  result.stats.partition_weight = overlap.TotalWeight(partition_local);
  result.stats.partition_seconds = partition_timer.Seconds();

  // Pass 2 (lines 21-23): prune by the summed lower bound over the
  // partition, replaying the cached pass-1 results.
  Timer pass2_timer;
  std::vector<double> lower_bound(db_size, 0.0);
  for (int fi : result.partition) {
    const std::unordered_map<int, double>& part_dist = kept_dists.at(fi);
    for (int gid = 0; gid < db_size; ++gid) {
      if (!alive[gid]) continue;
      auto it = part_dist.find(gid);
      if (it == part_dist.end()) {
        // Structure violation (already impossible after line 17, but kept
        // defensive): the bound is unbounded.
        alive[gid] = 0;
        --alive_count;
      } else {
        lower_bound[gid] += it->second;
        if (lower_bound[gid] > sigma) {
          alive[gid] = 0;
          --alive_count;
        }
      }
    }
  }

  result.candidates.reserve(alive_count);
  for (int gid = 0; gid < db_size; ++gid) {
    if (alive[gid]) result.candidates.push_back(gid);
  }
  result.stats.candidates_final = result.candidates.size();
  result.stats.pass2_seconds = pass2_timer.Seconds();
  return Status::OK();
}

BatchSearchResult RunSearchBatch(
    size_t num_queries, int num_threads,
    const std::function<Result<SearchResult>(size_t)>& run_query) {
  Timer timer;
  BatchSearchResult batch;
  batch.results.assign(num_queries,
                       Result<SearchResult>(Status::Internal("query not run")));
  ParallelFor(num_queries, num_threads, [&](size_t qi) {
    // ParallelFor requires that exceptions never escape the body; Search is
    // Status-based, so anything thrown below it is a defect we surface as a
    // per-query internal error rather than a process abort.
    try {
      batch.results[qi] = run_query(qi);
    } catch (const std::exception& e) {
      batch.results[qi] = Status::Internal(std::string("uncaught: ") + e.what());
    } catch (...) {
      batch.results[qi] = Status::Internal("uncaught non-standard exception");
    }
  });
  for (const Result<SearchResult>& r : batch.results) {
    if (r.ok()) {
      ++batch.succeeded;
      batch.total_stats.Accumulate(r.value().stats);
    } else {
      ++batch.failed;
    }
  }
  batch.wall_seconds = timer.Seconds();
  return batch;
}

}  // namespace pis::internal
