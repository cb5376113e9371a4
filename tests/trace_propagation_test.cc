// End-to-end trace propagation through the cluster fabric: a traced query
// driven through a real ClusterEngine over loopback PisServers must come
// back with the two-round span tree — one shard_filter round-trip span per
// endpoint group carrying the REPLICA's own child spans (decoded from the
// wire), the router's plan, and one shard_refine span per shard, again
// with the replica's spans. Each round visits its endpoints one after
// another, so sibling spans are sequential and their durations sum to at
// most the trace total.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine_test_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/cluster_engine.h"

namespace pis {
namespace {

using pis::testing::ClusterHarness;

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

double SumDurations(const std::vector<TraceSpan>& spans) {
  double total = 0;
  for (const TraceSpan& s : spans) total += s.dur_ms;
  return total;
}

TEST(TracePropagationTest, RouterSpanTreeCarriesPerShardChildSpans) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.num_groups = 2;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;

  // Query an initial database graph: its distance to itself is 0, so the
  // two-round pipeline is guaranteed to produce candidates and run verify.
  TraceContext ctx(TraceContext::NextId("test"));
  auto result = h.cluster().Search(h.initial_graph(0), h.sigma(), &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().answers.empty());

  const double total_ms = ctx.ElapsedMs();
  std::vector<TraceSpan> spans = ctx.TakeSpans();
  ASSERT_FALSE(spans.empty());

  int shard_filters = 0;
  int shard_refines = 0;
  int plans = 0;
  for (const TraceSpan& span : spans) {
    if (HasPrefix(span.name, "shard_filter:")) {
      ++shard_filters;
      EXPECT_GT(span.dur_ms, 0) << span.name;
      // The replica's own spans came back over the wire and were grafted
      // as children of the round trip: fragment enumeration plus one
      // filter span per requested shard.
      ASSERT_FALSE(span.children.empty()) << span.name;
      int enumerates = 0;
      int filter_spans = 0;
      for (const TraceSpan& child : span.children) {
        EXPECT_GT(child.dur_ms, 0) << child.name;
        if (child.name == "enumerate") ++enumerates;
        if (HasPrefix(child.name, "filter:shard")) ++filter_spans;
      }
      EXPECT_EQ(enumerates, 1) << span.name;
      EXPECT_GE(filter_spans, 1) << span.name;
      // Remote child time fits inside the round trip (network included).
      EXPECT_LE(SumDurations(span.children), span.dur_ms * 1.0001)
          << span.name;
    } else if (HasPrefix(span.name, "shard_refine:")) {
      ++shard_refines;
      EXPECT_GT(span.dur_ms, 0) << span.name;
      // Every refine prunes and verifies on the replica.
      int refines = 0;
      int verifies = 0;
      for (const TraceSpan& child : span.children) {
        if (child.name == "refine") ++refines;
        if (HasPrefix(child.name, "verify:")) ++verifies;
      }
      EXPECT_EQ(refines, 1) << span.name;
      EXPECT_EQ(verifies, 1) << span.name;
      EXPECT_LE(SumDurations(span.children), span.dur_ms * 1.0001)
          << span.name;
    } else if (span.name == "plan") {
      ++plans;
    }
  }
  // Round 1 fans over every endpoint group of the healthy cover; round 2
  // refines every shard.
  EXPECT_EQ(shard_filters, 2);
  EXPECT_EQ(shard_refines, 3);
  EXPECT_EQ(plans, 1);
  // Everything ran sequentially inside the context, so the recorded spans
  // cannot out-sum the wall clock.
  EXPECT_LE(SumDurations(spans), total_ms * 1.0001);
}

TEST(TracePropagationTest, UntracedSearchRecordsNothing) {
  ClusterHarness::Options opt;
  opt.num_shards = 2;
  opt.num_groups = 1;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  auto q = h.SampleQuery(5);
  ASSERT_TRUE(q.ok());
  auto traced = h.cluster().Search(q.value(), h.sigma(), nullptr);
  auto plain = h.cluster().Search(q.value());
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(traced.value().answers, plain.value().answers);
}

TEST(TracePropagationTest, TracedAndUntracedAnswersMatch) {
  ClusterHarness::Options opt;
  opt.num_shards = 3;
  opt.num_groups = 2;
  ClusterHarness h(opt);
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 0; i < 3; ++i) {
    auto q = h.SampleQuery(5 + i);
    ASSERT_TRUE(q.ok());
    TraceContext ctx(TraceContext::NextId("eq"));
    auto traced = h.cluster().Search(q.value(), h.sigma(), &ctx);
    auto plain = h.cluster().Search(q.value());
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(traced.value().answers, plain.value().answers);
    EXPECT_EQ(traced.value().stats.candidates_final,
              plain.value().stats.candidates_final);
  }
}

}  // namespace
}  // namespace pis
