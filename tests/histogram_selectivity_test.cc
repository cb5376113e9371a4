// The filter's plan computes each fragment's selectivity from per-shard
// (distance, count) histograms instead of the full list of found
// distances. Its weights must be bit-identical to the reference
// ComputeSelectivity (index_reference.h) over that list — whatever order
// the shards merge in — or partitions would drift with the shard count.
// Doubles are compared with EXPECT_EQ, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/shard_filter.h"
#include "index_reference.h"
#include "util/random.h"

namespace pis {
namespace {

using ::pis::testing::ComputeSelectivity;

/// Distances chosen so that summation order changes the rounded sum, with
/// ties below, at and above the cutoff λσ = 1.0 (σ = 2, λ = 0.5).
const std::vector<std::vector<double>>& ShardDistances() {
  static const std::vector<std::vector<double>> shards = {
      {0.1, 0.7, 1.0, 2.0, 1.0 / 3.0, 0.1, 1.5},
      {0.2, 1.0, 1.0, 2.0 / 3.0, 0.3, 1.75},
      {0.1, 0.2, 2.0, 1.5, 1e-9, 0.7, 0.30000000000000004},
      {},
  };
  return shards;
}

/// HistogramOf over a copy (it sorts its buffer in place).
DistanceHistogram HistogramOfCopy(std::vector<double> distances) {
  return HistogramOf(&distances);
}

constexpr double kSigma = 2.0;
constexpr double kLambda = 0.5;

TEST(HistogramSelectivityTest, MergeOrderNeverChangesTheWeight) {
  const auto& shards = ShardDistances();
  std::vector<double> all;
  for (const auto& d : shards) all.insert(all.end(), d.begin(), d.end());
  const int live = static_cast<int>(all.size()) + 5;
  const double want = ComputeSelectivity(all, live, kSigma, kLambda);

  std::vector<int> order = {0, 1, 2, 3};
  int permutations = 0;
  do {
    DistanceHistogram merged;
    for (int s : order) MergeHistogram(HistogramOfCopy(shards[s]), &merged);
    EXPECT_EQ(HistogramSelectivity(merged, live, kSigma, kLambda), want);
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 24);
}

TEST(HistogramSelectivityTest, MatchesTheExpandedListOnRandomDistances) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> all;
    DistanceHistogram merged;
    for (int s = 0; s < 3; ++s) {
      std::vector<double> shard;
      const int n = rng.UniformInt(0, 40);
      for (int i = 0; i < n; ++i) {
        // Few distinct values, so histograms repeat distances.
        shard.push_back(rng.UniformInt(0, 8) * 0.3);
      }
      all.insert(all.end(), shard.begin(), shard.end());
      MergeHistogram(HistogramOfCopy(shard), &merged);
    }
    for (double lambda : {0.5, 1.0, 2.0}) {
      const int live = static_cast<int>(all.size()) + trial;
      EXPECT_EQ(HistogramSelectivity(merged, live, kSigma, lambda),
                ComputeSelectivity(all, live, kSigma, lambda));
    }
  }
}

TEST(HistogramSelectivityTest, EmptyHistogramAndNoLiveGraphs) {
  // Nothing found: every live graph contributes the full cutoff.
  EXPECT_EQ(HistogramSelectivity({}, 10, kSigma, kLambda),
            ComputeSelectivity({}, 10, kSigma, kLambda));
  EXPECT_EQ(HistogramSelectivity({}, 10, kSigma, kLambda), kSigma * kLambda);
  // No live graph at all: nothing to discriminate.
  EXPECT_EQ(HistogramSelectivity({}, 0, kSigma, kLambda),
            ComputeSelectivity({}, 0, kSigma, kLambda));
  EXPECT_EQ(HistogramSelectivity({}, 0, kSigma, kLambda), 0.0);
}

TEST(HistogramSelectivityTest, HistogramsCountTiesAndMergeCounts) {
  EXPECT_EQ(HistogramOfCopy({1.0, 0.5, 1.0, 2.0, 1.0}),
            (DistanceHistogram{{0.5, 1}, {1.0, 3}, {2.0, 1}}));
  DistanceHistogram merged = {{0.5, 1}, {1.0, 3}};
  MergeHistogram({{0.25, 2}, {1.0, 1}, {3.0, 1}}, &merged);
  EXPECT_EQ(merged,
            (DistanceHistogram{{0.25, 2}, {0.5, 1}, {1.0, 4}, {3.0, 1}}));
}

// The plan sums every shard's histograms and live counts: its weights
// equal ComputeSelectivity over all shards' distances for any shard order.
TEST(HistogramSelectivityTest, PlanFilterWeightsAreShardOrderFree) {
  const auto& shards = ShardDistances();
  std::vector<ShardFilterResult> outputs(shards.size());
  std::vector<double> first;   // fragment 0: the shard distances
  std::vector<double> second;  // fragment 1: their halves
  int live = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    std::vector<double> halves;
    for (double d : shards[s]) halves.push_back(d / 2);
    outputs[s].live = static_cast<int>(shards[s].size()) + 2;
    outputs[s].histograms = {HistogramOfCopy(shards[s]),
                             HistogramOfCopy(halves)};
    live += outputs[s].live;
    first.insert(first.end(), shards[s].begin(), shards[s].end());
    second.insert(second.end(), halves.begin(), halves.end());
  }
  PisOptions options;
  options.sigma = kSigma;
  options.lambda = kLambda;
  const std::vector<double> want = {
      ComputeSelectivity(first, live, kSigma, kLambda),
      ComputeSelectivity(second, live, kSigma, kLambda)};
  std::vector<int> order = {0, 1, 2, 3};
  do {
    std::vector<ShardFilterResult> permuted;
    for (int s : order) permuted.push_back(outputs[s]);
    FilterResult result;
    result.fragments.resize(2);
    result.fragments[0].vertices = {0, 1};
    result.fragments[1].vertices = {1, 2};
    PlanFilter(permuted, options, &result);
    EXPECT_EQ(result.selectivities, want);
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace
}  // namespace pis
