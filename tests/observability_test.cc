#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/stats.h"
#include "util/json.h"

namespace pis {
namespace {

TEST(TraceSpanTest, JsonRoundTrip) {
  TraceSpan root;
  root.name = "query";
  root.start_ms = 0;
  root.dur_ms = 12.5;
  TraceSpan child;
  child.name = "shard_query:127.0.0.1:4871";
  child.start_ms = 1.25;
  child.dur_ms = 8;
  TraceSpan grandchild;
  grandchild.name = "range_queries:shard0";
  grandchild.start_ms = 0.5;
  grandchild.dur_ms = 2;
  child.children.push_back(grandchild);
  root.children.push_back(child);

  auto decoded = TraceSpan::FromJson(root.ToJsonValue());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().name, "query");
  EXPECT_DOUBLE_EQ(decoded.value().dur_ms, 12.5);
  ASSERT_EQ(decoded.value().children.size(), 1u);
  EXPECT_EQ(decoded.value().children[0].name, "shard_query:127.0.0.1:4871");
  ASSERT_EQ(decoded.value().children[0].children.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.value().children[0].children[0].start_ms, 0.5);
}

TEST(TraceSpanTest, ListRoundTripPreservesOrder) {
  std::vector<TraceSpan> spans(3);
  spans[0].name = "a";
  spans[1].name = "b";
  spans[2].name = "c";
  auto decoded = TraceSpan::ListFromJson(TraceSpan::ListToJson(spans));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value()[0].name, "a");
  EXPECT_EQ(decoded.value()[2].name, "c");
}

TEST(TraceSpanTest, DecodeRejectsMalformedShapes) {
  EXPECT_FALSE(TraceSpan::FromJson(JsonValue(3.0)).ok());
  JsonValue no_name = JsonValue::Object();
  no_name.Set("dur_ms", 1.0);
  EXPECT_FALSE(TraceSpan::FromJson(no_name).ok());
  JsonValue negative = JsonValue::Object();
  negative.Set("name", "x");
  negative.Set("dur_ms", -1.0);
  EXPECT_FALSE(TraceSpan::FromJson(negative).ok());
  JsonValue bad_children = JsonValue::Object();
  bad_children.Set("name", "x");
  bad_children.Set("children", "not an array");
  EXPECT_FALSE(TraceSpan::FromJson(bad_children).ok());
  EXPECT_FALSE(TraceSpan::ListFromJson(JsonValue("nope")).ok());
}

TEST(TraceSpanTest, DecodeIsDepthLimited) {
  // A hostile reply nesting 64 levels deep must be rejected, not recursed
  // into until the stack dies.
  JsonValue leaf = JsonValue::Object();
  leaf.Set("name", "leaf");
  for (int i = 0; i < 64; ++i) {
    JsonValue parent = JsonValue::Object();
    parent.Set("name", "n");
    JsonValue children = JsonValue::Array();
    children.Push(std::move(leaf));
    parent.Set("children", std::move(children));
    leaf = std::move(parent);
  }
  auto decoded = TraceSpan::FromJson(leaf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceContextTest, RecordsSpansWithMonotonicOffsets) {
  TraceContext ctx("t-1");
  EXPECT_EQ(ctx.trace_id(), "t-1");
  {
    ScopedSpan span(&ctx, "stage_a");
  }
  ctx.RecordSince("stage_b", 0);
  std::vector<TraceSpan> spans = ctx.TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "stage_a");
  EXPECT_EQ(spans[1].name, "stage_b");
  EXPECT_GE(spans[0].start_ms, 0);
  EXPECT_GE(spans[1].dur_ms, spans[0].dur_ms);  // b spans the whole context
  EXPECT_TRUE(ctx.TakeSpans().empty());         // Take drained
}

TEST(TraceContextTest, ConcurrentRecordingIsSafe) {
  TraceContext ctx("t-mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&ctx, "worker" + std::to_string(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ctx.TakeSpans().size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

TEST(TraceContextTest, NullContextIsNoOp) {
  ScopedSpan span(nullptr, "ignored");
  span.AddChild(TraceSpan{});
  span.Stop();  // must not crash
}

TEST(TraceContextTest, ToJsonCarriesIdTotalAndSpans) {
  TraceContext ctx(TraceContext::NextId("q"));
  ctx.RecordSince("only", 0);
  JsonValue json = ctx.ToJsonValue();
  EXPECT_NE(json.GetStringOr("trace_id", ""), "");
  EXPECT_GE(json.GetNumberOr("total_ms", -1), 0);
  const JsonValue* spans = json.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ(spans->items()[0].GetStringOr("name", ""), "only");
}

TEST(TraceContextTest, NextIdIsUnique) {
  EXPECT_NE(TraceContext::NextId("q"), TraceContext::NextId("q"));
}

TEST(BuildFilterSpanTest, ReconstructsStageChildren) {
  QueryStats stats;
  stats.pass1_seconds = 0.004;
  stats.selectivity_seconds = 0.002;
  stats.partition_seconds = 0.0005;
  stats.pass2_seconds = 0.0015;
  TraceSpan filter = BuildFilterSpan(stats, 2.0, 7.5);
  EXPECT_EQ(filter.name, "filter");
  EXPECT_DOUBLE_EQ(filter.start_ms, 2.0);
  EXPECT_DOUBLE_EQ(filter.dur_ms, 7.5);
  ASSERT_EQ(filter.children.size(), 3u);
  EXPECT_EQ(filter.children[0].name, "pass1");
  EXPECT_DOUBLE_EQ(filter.children[0].start_ms, 2.0);
  EXPECT_DOUBLE_EQ(filter.children[0].dur_ms, 4.0);
  ASSERT_EQ(filter.children[0].children.size(), 1u);
  // Selectivity nests INSIDE pass-1 (its wall time includes the fits).
  EXPECT_EQ(filter.children[0].children[0].name, "selectivity");
  EXPECT_DOUBLE_EQ(filter.children[0].children[0].start_ms, 2.0);
  EXPECT_EQ(filter.children[1].name, "partition");
  EXPECT_DOUBLE_EQ(filter.children[1].start_ms, 6.0);  // after pass1
  EXPECT_EQ(filter.children[2].name, "pass2");
  // Stages lay out back to back.
  EXPECT_DOUBLE_EQ(filter.children[2].start_ms,
                   filter.children[1].start_ms + filter.children[1].dur_ms);
}

TEST(BuildFilterSpanTest, OmitsSketchWhenProbeNeverRan) {
  QueryStats stats;
  stats.pass1_seconds = 0.001;
  TraceSpan filter = BuildFilterSpan(stats, 0, 1.5);
  ASSERT_EQ(filter.children.size(), 3u);
  EXPECT_EQ(filter.children[0].name, "pass1");
  for (const TraceSpan& child : filter.children) {
    EXPECT_NE(child.name, "sketch");
  }
}

/// The slow-query log's line counter for `outcome`, read from `registry`.
uint64_t SlowLogLines(MetricsRegistry* registry, const char* outcome) {
  return registry
      ->GetCounter("pis_slow_query_lines_total", "", {{"outcome", outcome}})
      ->value();
}

TEST(SlowQueryLogTest, ThresholdGatesLogging) {
  SlowQueryLog log("", /*threshold_ms=*/5.0);
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(4.999));
  EXPECT_TRUE(log.ShouldLog(5.0));
  EXPECT_TRUE(log.ShouldLog(100.0));
  SlowQueryLog disabled("", 0);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.ShouldLog(1e9));
}

TEST(SlowQueryLogTest, AppendsOneJsonLinePerTrace) {
  const std::string path = ::testing::TempDir() + "/slow_query_test.log";
  std::remove(path.c_str());
  SlowQueryLog log(path, 1.0);
  MetricsRegistry registry;
  log.EnableMetrics(&registry);
  TraceContext ctx("slow-1");
  ctx.RecordSince("stage", 0);
  JsonValue trace = ctx.ToJsonValue();
  trace.Set("op", "query");
  log.Log(trace);
  log.Log(trace);
  EXPECT_EQ(SlowLogLines(&registry, "written"), 2u);
  EXPECT_EQ(SlowLogLines(&registry, "dropped"), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed.value().GetStringOr("trace_id", ""), "slow-1");
    EXPECT_EQ(parsed.value().GetStringOr("op", ""), "query");
    ASSERT_NE(parsed.value().Find("spans"), nullptr);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(SlowQueryLogTest, UnwritablePathCountsDrops) {
  SlowQueryLog log("/nonexistent_dir_pis/slow.log", 1.0);
  log.Log(JsonValue::Object());
  // Handed over after the drop: what the log counted before carries over.
  MetricsRegistry registry;
  log.EnableMetrics(&registry);
  EXPECT_EQ(SlowLogLines(&registry, "written"), 0u);
  EXPECT_EQ(SlowLogLines(&registry, "dropped"), 1u);
}

}  // namespace
}  // namespace pis
