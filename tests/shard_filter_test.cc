// Pass 1 (ShardFilter) and pass 2 (ShardRefine) aggregate each fragment's
// range-query matches in a dense per-shard array over local ids and
// intersect over local ids. This suite checks both against a reference
// that aggregates the same range queries in a std::map keyed by global id:
// survivors, histograms and the partition-bound count must be identical,
// and the refined candidates must be the reference's that the graph-local
// certificate keeps, for trie and R-tree specs, with tombstones, after a
// compaction, after a rebalance (where a shard's local order is no longer
// its global order) and for an empty fragment list; and pass 2 skips the
// certificate, changing nothing, when one fragment covers the query.
#include "core/shard_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/certificate.h"
#include "core/naive_search.h"
#include "core/verifier.h"
#include "engine_test_util.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;
using ::pis::testing::SampleQueries;

/// Global id -> minimum distance of one fragment's range query over shard
/// `s` (Eq. 3), straight from FragmentIndex::RangeQuery.
std::map<int, double> ReferenceMinDistances(const ShardedFragmentIndex& index,
                                            int s,
                                            const PreparedFragment& fragment,
                                            double sigma) {
  std::map<int, double> min_dist;
  Status status = index.shard(s).RangeQuery(
      fragment, sigma, [&](int local, double d) {
        auto [it, inserted] = min_dist.try_emplace(index.global_id(s, local), d);
        if (!inserted && d < it->second) it->second = d;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return min_dist;
}

ShardFilterResult ReferenceShardFilter(
    const ShardedFragmentIndex& index, int s,
    const std::vector<QueryFragment>& fragments, double sigma) {
  ShardFilterResult out;
  out.live = index.shard(s).num_live();
  std::set<int> survivors;
  for (int l = 0; l < index.shard_size(s); ++l) {
    if (index.shard(s).IsLive(l)) survivors.insert(index.global_id(s, l));
  }
  for (const QueryFragment& fragment : fragments) {
    const std::map<int, double> min_dist =
        ReferenceMinDistances(index, s, fragment.prepared, sigma);
    std::map<double, int> counts;
    for (const auto& [gid, d] : min_dist) ++counts[d];
    out.histograms.emplace_back(counts.begin(), counts.end());
    std::erase_if(survivors,
                  [&](int gid) { return min_dist.count(gid) == 0; });
  }
  out.survivors.assign(survivors.begin(), survivors.end());
  return out;
}

std::vector<int> ReferenceShardRefine(
    const ShardedFragmentIndex& index, int s,
    const std::vector<QueryFragment>& fragments,
    const std::vector<int>& partition, const std::vector<int>& survivors,
    double sigma) {
  std::map<int, double> bound;
  for (int gid : survivors) bound[gid] = 0;
  for (int fi : partition) {
    const std::map<int, double> min_dist =
        ReferenceMinDistances(index, s, fragments[fi].prepared, sigma);
    for (auto entry = bound.begin(); entry != bound.end();) {
      auto it = min_dist.find(entry->first);
      if (it == min_dist.end() || entry->second + it->second > sigma) {
        entry = bound.erase(entry);
      } else {
        entry->second += it->second;
        ++entry;
      }
    }
  }
  std::vector<int> candidates;
  for (const auto& [gid, b] : bound) candidates.push_back(gid);
  return candidates;
}

struct SpecCase {
  const char* name;
  DistanceSpec spec;
  double sigma;
};

// Without this, gtest names each case by a byte dump of SpecCase, which
// starts with the address of `name` and so changes from run to run.
void PrintTo(const SpecCase& c, std::ostream* os) { *os << c.name; }

class ShardFilterReferenceTest : public ::testing::TestWithParam<SpecCase> {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<EngineFixture>(48, 77, 4, GetParam().spec);
    ASSERT_TRUE(fx_->index.ok());
    FragmentIndexOptions options;
    options.max_fragment_edges = 4;
    options.spec = GetParam().spec;
    auto built =
        ShardedFragmentIndex::Build(fx_->db, fx_->features, options, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::make_unique<ShardedFragmentIndex>(built.MoveValue());
    queries_ = SampleQueries(fx_->db, 3, 6, 5);
    for (const Graph& q : SampleQueries(fx_->db, 2, 10, 6)) {
      queries_.push_back(q);
    }
  }

  /// Pass 1, the plan's partition and pass 2 on every shard for every
  /// query, each against the reference. Also refines over every fragment,
  /// a partition of overlapping fragments that drives bounds past sigma.
  void ExpectMatchesReference() {
    const double sigma = GetParam().sigma;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      auto fragments =
          EnumerateIndexedQueryFragments(index_->shard(0), queries_[qi]);
      ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
      FilterResult plan;
      plan.fragments = fragments.value();
      std::vector<ShardFilterResult> shards(index_->num_shards());
      for (int s = 0; s < index_->num_shards(); ++s) {
        ASSERT_TRUE(
            ShardFilter(*index_, s, plan.fragments, sigma, &shards[s]).ok());
        const ShardFilterResult want =
            ReferenceShardFilter(*index_, s, plan.fragments, sigma);
        EXPECT_EQ(shards[s].live, want.live) << "shard " << s;
        EXPECT_EQ(shards[s].survivors, want.survivors) << "shard " << s;
        EXPECT_EQ(shards[s].histograms, want.histograms) << "shard " << s;
        for (const DistanceHistogram& h : want.histograms) {
          hits_ += h.empty() ? 0 : 1;
        }
        survivors_ += want.survivors.size();
      }
      PisOptions options;
      options.sigma = sigma;
      PlanFilter(shards, options, &plan);
      std::vector<int> every(plan.fragments.size());
      std::iota(every.begin(), every.end(), 0);
      for (const std::vector<int>* partition : {&plan.partition, &every}) {
        for (int s = 0; s < index_->num_shards(); ++s) {
          std::vector<int> candidates;
          size_t partition_candidates = 0;
          ASSERT_TRUE(ShardRefine(*index_, fx_->db, s, queries_[qi],
                                  plan.fragments, *partition,
                                  shards[s].survivors, sigma, &candidates,
                                  &partition_candidates)
                          .ok());
          const std::vector<int> want =
              ReferenceShardRefine(*index_, s, plan.fragments, *partition,
                                   shards[s].survivors, sigma);
          EXPECT_EQ(partition_candidates, want.size()) << "shard " << s;
          EXPECT_EQ(candidates, Certified(queries_[qi], want, sigma))
              << "shard " << s;
          candidates_ += candidates.size();
        }
      }
    }
  }

  /// The graphs of `ids` whose certificate bound stays within `sigma`
  /// (certificate_test.cc checks the certificate against an oracle).
  std::vector<int> Certified(const Graph& query, const std::vector<int>& ids,
                             double sigma) const {
    GraphCertificate certificate(query, GetParam().spec);
    std::vector<int> kept;
    for (int gid : ids) {
      if (certificate.LowerBound(fx_->db.at(gid), sigma) <= sigma) {
        kept.push_back(gid);
      }
    }
    return kept;
  }

  std::unique_ptr<EngineFixture> fx_;
  std::unique_ptr<ShardedFragmentIndex> index_;
  std::vector<Graph> queries_;
  // What the comparisons covered, so a case that matched nothing fails.
  int hits_ = 0;
  size_t survivors_ = 0;
  size_t candidates_ = 0;
};

TEST_P(ShardFilterReferenceTest, FreshIndex) {
  ExpectMatchesReference();
  EXPECT_GT(hits_, 0);
  EXPECT_GT(survivors_, 0u);
  EXPECT_GT(candidates_, 0u);
}

TEST_P(ShardFilterReferenceTest, WithTombstones) {
  for (int gid : {0, 5, 17, 30, 31, 47}) {
    ASSERT_TRUE(index_->RemoveGraph(gid).ok());
  }
  ExpectMatchesReference();
  EXPECT_GT(survivors_, 0u);
}

TEST_P(ShardFilterReferenceTest, AfterCompactShard) {
  for (int gid : {1, 2, 20, 21, 40}) ASSERT_TRUE(index_->RemoveGraph(gid).ok());
  for (int s = 0; s < index_->num_shards(); ++s) {
    ASSERT_TRUE(index_->CompactShard(s).ok());
  }
  EXPECT_EQ(index_->shard_of(20), -1);
  ExpectMatchesReference();
  EXPECT_GT(survivors_, 0u);
}

TEST_P(ShardFilterReferenceTest, AfterRebalance) {
  // Emptying part of the last shard makes Rebalance move graphs of lower
  // ids into it, appended after its own higher ids.
  for (int gid = 40; gid < 48; ++gid) {
    ASSERT_TRUE(index_->RemoveGraph(gid).ok());
  }
  auto moved = index_->Rebalance(fx_->db);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_GT(moved.value(), 0);
  bool out_of_order = false;
  for (int s = 0; s < index_->num_shards(); ++s) {
    for (int l = 1; l < index_->shard_size(s); ++l) {
      if (index_->global_id(s, l) < index_->global_id(s, l - 1)) {
        out_of_order = true;
      }
    }
  }
  ASSERT_TRUE(out_of_order) << "rebalance kept every shard in global order";
  ExpectMatchesReference();
  EXPECT_GT(survivors_, 0u);
}

TEST_P(ShardFilterReferenceTest, EmptyFragmentList) {
  ASSERT_TRUE(index_->RemoveGraph(3).ok());
  for (int s = 0; s < index_->num_shards(); ++s) {
    ShardFilterResult got;
    ASSERT_TRUE(ShardFilter(*index_, s, {}, GetParam().sigma, &got).ok());
    const ShardFilterResult want =
        ReferenceShardFilter(*index_, s, {}, GetParam().sigma);
    EXPECT_EQ(got.live, want.live);
    EXPECT_EQ(got.survivors, want.survivors);
    EXPECT_TRUE(got.histograms.empty());
    EXPECT_EQ(got.survivors.size(), static_cast<size_t>(got.live));
    std::vector<int> candidates;
    size_t partition_candidates = 0;
    ASSERT_TRUE(ShardRefine(*index_, fx_->db, s, queries_[0], {}, {},
                            got.survivors, GetParam().sigma, &candidates,
                            &partition_candidates)
                    .ok());
    EXPECT_EQ(partition_candidates, got.survivors.size());
    EXPECT_EQ(candidates,
              Certified(queries_[0], got.survivors, GetParam().sigma));
  }
}

/// Whether some fragment has every edge and every vertex of `query`.
bool SomeFragmentCovers(const std::vector<QueryFragment>& fragments,
                        const Graph& query) {
  return std::any_of(fragments.begin(), fragments.end(),
                     [&](const QueryFragment& f) {
                       return f.prepared.num_edges == query.NumEdges() &&
                              static_cast<int>(f.vertices.size()) ==
                                  query.NumVertices();
                     });
}

// When one fragment covers the whole query, pass 1 already bounded every
// survivor's exact distance within σ, so the certificate is skipped: with
// and without the skip (an empty fragment list never skips) pass 2 leaves
// the same candidates, and every Yp survivor is an answer. A query with an
// isolated vertex is never covered, and still answers as NaiveSearch does.
TEST_P(ShardFilterReferenceTest, CoveringFragmentSkipsTheCertificate) {
  const double sigma = GetParam().sigma;
  const DistanceSpec& spec = GetParam().spec;
  int covered = 0;
  size_t yp_total = 0;
  std::vector<Graph> covered_queries;
  for (int edges = 1; edges <= 4; ++edges) {
    for (const Graph& query : SampleQueries(fx_->db, 3, edges, 40 + edges)) {
      auto fragments = EnumerateIndexedQueryFragments(index_->shard(0), query);
      ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
      // Otherwise its skeleton is not an indexed class.
      if (!SomeFragmentCovers(fragments.value(), query)) continue;
      ++covered;
      covered_queries.push_back(query);
      FilterResult plan;
      plan.fragments = fragments.value();
      std::vector<ShardFilterResult> shards(index_->num_shards());
      for (int s = 0; s < index_->num_shards(); ++s) {
        ASSERT_TRUE(
            ShardFilter(*index_, s, plan.fragments, sigma, &shards[s]).ok());
      }
      PisOptions options;
      options.sigma = sigma;
      PlanFilter(shards, options, &plan);
      for (int s = 0; s < index_->num_shards(); ++s) {
        std::vector<int> yp;
        ASSERT_TRUE(ShardPartitionBound(*index_, s, plan.fragments,
                                        plan.partition, shards[s].survivors,
                                        sigma, &yp)
                        .ok());
        std::vector<int> skipped = yp;
        CertifyCandidates(fx_->db, query, plan.fragments, spec, sigma,
                          &skipped);
        EXPECT_EQ(skipped, yp);
        std::vector<int> certified = yp;
        CertifyCandidates(fx_->db, query, {}, spec, sigma, &certified);
        EXPECT_EQ(certified, skipped);
        EXPECT_EQ(VerifyCandidates(fx_->db, query, yp, spec, sigma).answers,
                  yp);
        yp_total += yp.size();
      }
    }
  }
  EXPECT_GT(covered, 0);
  EXPECT_GT(yp_total, 0u);

  PisOptions options;
  options.sigma = sigma;
  PisEngine engine(&fx_->db, index_.get(), options);
  for (Graph query : covered_queries) {
    query.AddVertex();
    auto fragments = EnumerateIndexedQueryFragments(index_->shard(0), query);
    ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
    EXPECT_FALSE(SomeFragmentCovers(fragments.value(), query));
    auto searched = engine.Search(query);
    ASSERT_TRUE(searched.ok()) << searched.status().ToString();
    EXPECT_EQ(searched.value().answers,
              NaiveSearch(fx_->db, query, spec, sigma).answers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ShardFilterReferenceTest,
    ::testing::Values(SpecCase{"mutation_trie", DistanceSpec::EdgeMutation(),
                               1.0},
                      SpecCase{"linear_rtree", DistanceSpec::EdgeLinear(),
                               3.0}),
    [](const ::testing::TestParamInfo<SpecCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pis
