#include "core/shard_filter.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "core/certificate.h"
#include "core/partition.h"
#include "util/logging.h"
#include "util/timer.h"

namespace pis {

namespace {

/// One fragment's range query over a shard, aggregated per graph to the
/// minimum distance within sigma (Algorithm 2 lines 10-16, Eq. 3) in a
/// dense array over the shard's local ids. Only the graphs a query hit are
/// reset before the next one, so a fragment costs its matches, not the
/// shard size. Tombstoned graphs never appear (FragmentIndex::RangeQuery
/// drops them).
class ShardMinDistances {
 public:
  explicit ShardMinDistances(int shard_size) : dist_(shard_size, kUnset) {}

  Status Collect(const FragmentIndex& shard, const PreparedFragment& fragment,
                 double sigma) {
    for (int local : hits_) dist_[local] = kUnset;
    hits_.clear();
    return shard.RangeQuery(fragment, sigma, [this](int local, double d) {
      double& slot = dist_[local];
      if (std::isnan(slot)) {
        hits_.push_back(local);
        slot = d;
      } else if (d < slot) {
        slot = d;
      }
    });
  }

  bool Hit(int local) const { return !std::isnan(dist_[local]); }
  double distance(int local) const { return dist_[local]; }
  /// Local ids the last Collect hit, each once, in arrival order.
  const std::vector<int>& hits() const { return hits_; }

 private:
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> dist_;
  std::vector<int> hits_;
};

/// Whether `fragment` covers every edge and every vertex of `query`.
bool CoversQuery(const QueryFragment& fragment, const Graph& query) {
  return fragment.prepared.num_edges == query.NumEdges() &&
         static_cast<int>(fragment.vertices.size()) == query.NumVertices();
}

}  // namespace

DistanceHistogram HistogramOf(std::vector<double>* distances) {
  std::sort(distances->begin(), distances->end());
  DistanceHistogram histogram;
  for (double d : *distances) {
    if (!histogram.empty() && histogram.back().first == d) {
      ++histogram.back().second;
    } else {
      histogram.emplace_back(d, 1);
    }
  }
  return histogram;
}

void MergeHistogram(const DistanceHistogram& from, DistanceHistogram* into) {
  DistanceHistogram merged;
  merged.reserve(from.size() + into->size());
  auto a = from.begin();
  auto b = into->begin();
  while (a != from.end() || b != into->end()) {
    if (b == into->end() || (a != from.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == from.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  *into = std::move(merged);
}

double HistogramSelectivity(const DistanceHistogram& histogram, int live,
                            double sigma, double lambda) {
  if (live <= 0) return 0.0;
  const double cutoff = lambda * sigma;
  // The same additions, in the same order, as the reference
  // ComputeSelectivity's sum over the sorted expansion
  // (tests/index_reference.h): the histogram is already ascending.
  double total = 0;
  int found = 0;
  for (const auto& [d, count] : histogram) {
    const double term = std::min(d, cutoff);
    for (int i = 0; i < count; ++i) total += term;
    found += count;
  }
  PIS_DCHECK(found <= live);
  total += static_cast<double>(live - found) * cutoff;
  return total / static_cast<double>(live);
}

Status ShardFilter(const ShardedFragmentIndex& index, int shard,
                   const std::vector<QueryFragment>& fragments, double sigma,
                   ShardFilterResult* out) {
  const FragmentIndex& local = index.shard(shard);
  const int size = index.shard_size(shard);
  out->live = local.num_live();
  // CQ over local ids starts as every live graph of the shard (line 17
  // intersects it down).
  std::vector<int> kept;
  for (int l = 0; l < size; ++l) {
    if (local.IsLive(l)) kept.push_back(l);
  }
  out->histograms.clear();
  out->histograms.reserve(fragments.size());
  ShardMinDistances dist(size);
  std::vector<double> found;
  for (const QueryFragment& fragment : fragments) {
    PIS_RETURN_NOT_OK(dist.Collect(local, fragment.prepared, sigma));
    found.clear();
    for (int l : dist.hits()) found.push_back(dist.distance(l));
    out->histograms.push_back(HistogramOf(&found));
    std::erase_if(kept, [&dist](int l) { return !dist.Hit(l); });
  }
  out->survivors.clear();
  out->survivors.reserve(kept.size());
  for (int l : kept) out->survivors.push_back(index.global_id(shard, l));
  std::sort(out->survivors.begin(), out->survivors.end());
  return Status::OK();
}

void PlanFilter(std::span<const ShardFilterResult> shards,
                const PisOptions& options, FilterResult* result) {
  const size_t num_fragments = result->fragments.size();
  QueryStats& stats = result->stats;
  stats.fragments_enumerated = num_fragments;

  // Selectivities (line 18) over the cluster-wide live count.
  Timer selectivity_timer;
  int live = 0;
  size_t survivors = 0;
  std::vector<DistanceHistogram> merged(num_fragments);
  for (const ShardFilterResult& shard : shards) {
    live += shard.live;
    survivors += shard.survivors.size();
    for (size_t fi = 0; fi < num_fragments; ++fi) {
      MergeHistogram(shard.histograms[fi], &merged[fi]);
    }
  }
  stats.candidates_after_intersection = survivors;
  result->selectivities.assign(num_fragments, 0.0);
  for (size_t fi = 0; fi < num_fragments; ++fi) {
    result->selectivities[fi] = HistogramSelectivity(
        merged[fi], live, options.sigma, options.lambda);
  }
  stats.selectivity_seconds = selectivity_timer.Seconds();

  // ε-filter (line 5), overlapping-relation graph and partition (19-20).
  Timer partition_timer;
  std::vector<int> kept;  // positions into result->fragments
  std::vector<WeightedFragment> weighted;
  for (size_t fi = 0; fi < num_fragments; ++fi) {
    if (result->selectivities[fi] <= options.epsilon) continue;
    kept.push_back(static_cast<int>(fi));
    weighted.push_back(
        {result->selectivities[fi], result->fragments[fi].vertices});
  }
  OverlapGraph overlap(weighted);
  std::vector<int> partition_local = SelectPartition(
      overlap, options.partition_algorithm, options.enhanced_k);
  result->partition.clear();
  for (int pi : partition_local) result->partition.push_back(kept[pi]);
  stats.fragments_kept = kept.size();
  stats.partition_size = result->partition.size();
  stats.partition_weight = overlap.TotalWeight(partition_local);
  stats.range_queries =
      (num_fragments + result->partition.size()) * shards.size();
  stats.partition_seconds = partition_timer.Seconds();
}

Status ShardPartitionBound(const ShardedFragmentIndex& index, int shard,
                           const std::vector<QueryFragment>& fragments,
                           const std::vector<int>& partition,
                           const std::vector<int>& survivors, double sigma,
                           std::vector<int>* candidates) {
  *candidates = survivors;
  std::vector<double> lower_bound(candidates->size(), 0.0);
  std::vector<int> locals;
  locals.reserve(survivors.size());
  for (int gid : survivors) {
    PIS_DCHECK(index.shard_of(gid) == shard);
    locals.push_back(index.local_id(gid));
  }
  ShardMinDistances dist(index.shard_size(shard));
  for (int fi : partition) {
    PIS_RETURN_NOT_OK(
        dist.Collect(index.shard(shard), fragments[fi].prepared, sigma));
    size_t kept = 0;
    for (size_t i = 0; i < candidates->size(); ++i) {
      // A survivor every fragment hit is always found; a miss would mean
      // an unbounded distance, so it is pruned either way.
      if (!dist.Hit(locals[i])) continue;
      const double bound = lower_bound[i] + dist.distance(locals[i]);
      if (bound > sigma) continue;
      (*candidates)[kept] = (*candidates)[i];
      locals[kept] = locals[i];
      lower_bound[kept] = bound;
      ++kept;
    }
    candidates->resize(kept);
    locals.resize(kept);
    lower_bound.resize(kept);
  }
  return Status::OK();
}

void CertifyCandidates(const GraphDatabase& db, const Graph& query,
                       const std::vector<QueryFragment>& fragments,
                       const DistanceSpec& spec, double sigma,
                       std::vector<int>* candidates) {
  for (const QueryFragment& fragment : fragments) {
    if (CoversQuery(fragment, query)) return;
  }
  GraphCertificate certificate(query, spec);
  std::erase_if(*candidates, [&](int gid) {
    return certificate.LowerBound(db.at(gid), sigma) > sigma;
  });
}

Status ShardRefine(const ShardedFragmentIndex& index, const GraphDatabase& db,
                   int shard, const Graph& query,
                   const std::vector<QueryFragment>& fragments,
                   const std::vector<int>& partition,
                   const std::vector<int>& survivors, double sigma,
                   std::vector<int>* candidates,
                   size_t* partition_candidates) {
  PIS_RETURN_NOT_OK(ShardPartitionBound(index, shard, fragments, partition,
                                        survivors, sigma, candidates));
  *partition_candidates = candidates->size();
  CertifyCandidates(db, query, fragments, index.options().spec, sigma,
                    candidates);
  return Status::OK();
}

std::vector<int> ShardContainment(const ShardedFragmentIndex& index, int shard,
                                  std::span<const int> class_ids) {
  const FragmentIndex& local = index.shard(shard);
  // Ascending local ids: the shard's live graphs, intersected down by each
  // class's sorted containment list.
  std::vector<int> kept;
  for (int l = 0; l < index.shard_size(shard); ++l) {
    if (local.IsLive(l)) kept.push_back(l);
  }
  std::vector<int> next;
  for (int class_id : class_ids) {
    if (kept.empty()) break;
    const std::vector<int>& containing =
        local.class_at(class_id).containing_graphs();
    next.clear();
    std::set_intersection(kept.begin(), kept.end(), containing.begin(),
                          containing.end(), std::back_inserter(next));
    kept.swap(next);
  }
  for (int& id : kept) id = index.global_id(shard, id);
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace pis
