// PisServer protocol: every op of the newline-delimited JSON protocol
// against an in-process server on an ephemeral loopback port — replies,
// error handling (which must keep the connection usable), mutation
// visibility across connections, per-request sigma, and clean shutdown.
#include "server/pis_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "graph/io.h"
#include "server/engine_host.h"
#include "util/json.h"
#include "util/socket.h"

namespace pis {
namespace {

using testing::EngineFixture;

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<EngineFixture>(20, 61);
    ASSERT_TRUE(fx_->index.ok());
    auto sharded = ShardedFragmentIndex::Build(
        fx_->db, fx_->features, fx_->index.value().options(), 3);
    ASSERT_TRUE(sharded.ok());
    PisOptions options;
    options.sigma = 2.0;
    host_ = std::make_unique<EngineHost>(fx_->db, sharded.MoveValue(),
                                         options);
    PisServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.num_workers = 2;
    server_ = std::make_unique<PisServer>(host_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
  }

  TcpSocket Connect() {
    auto conn = TcpSocket::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return conn.ok() ? conn.MoveValue() : TcpSocket();
  }

  /// Sends one request line and parses the reply object.
  JsonValue RoundTrip(TcpSocket* conn, const std::string& line) {
    EXPECT_TRUE(conn->SendLine(line).ok());
    auto reply = conn->RecvLine();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (!reply.ok()) return JsonValue();
    auto parsed = JsonValue::Parse(reply.value());
    EXPECT_TRUE(parsed.ok()) << reply.value();
    return parsed.ok() ? parsed.MoveValue() : JsonValue();
  }
  JsonValue RoundTripJson(TcpSocket* conn, const JsonValue& request) {
    return RoundTrip(conn, request.Serialize());
  }

  static std::vector<int> AnswerIds(const JsonValue& reply) {
    std::vector<int> ids;
    const JsonValue* answers = reply.Find("answers");
    EXPECT_NE(answers, nullptr);
    if (answers == nullptr) return ids;
    for (const JsonValue& v : answers->items()) {
      ids.push_back(static_cast<int>(v.AsNumber()));
    }
    return ids;
  }

  JsonValue QueryRequest(const Graph& g) {
    JsonValue request = JsonValue::Object();
    request.Set("op", "query");
    request.Set("graph", FormatGraph(g, 0));
    return request;
  }

  std::unique_ptr<EngineFixture> fx_;
  /// Outlives host_, which records into it once a test enables it.
  MetricsRegistry registry_;
  std::unique_ptr<EngineHost> host_;
  std::unique_ptr<PisServer> server_;
};

TEST_F(ServerProtocolTest, HealthAndStats) {
  TcpSocket conn = Connect();
  JsonValue health = RoundTrip(&conn, "{\"op\":\"health\"}");
  EXPECT_TRUE(health.GetBoolOr("ok", false));
  EXPECT_EQ(health.GetStringOr("status", ""), "serving");
  EXPECT_EQ(health.GetNumberOr("live", -1), 20);

  JsonValue stats = RoundTrip(&conn, "{\"op\":\"stats\"}");
  EXPECT_TRUE(stats.GetBoolOr("ok", false));
  const JsonValue* payload = stats.Find("stats");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->GetNumberOr("num_shards", -1), 3);
  EXPECT_EQ(payload->GetNumberOr("live", -1), 20);
  ASSERT_NE(payload->Find("shards"), nullptr);
  EXPECT_EQ(payload->Find("shards")->size(), 3u);
}

TEST_F(ServerProtocolTest, QueryMatchesTheHostEngine) {
  TcpSocket conn = Connect();
  for (int gid : {0, 7, 13}) {
    const Graph& query = fx_->db.at(gid);
    JsonValue reply = RoundTripJson(&conn, QueryRequest(query));
    ASSERT_TRUE(reply.GetBoolOr("ok", false)) << reply.Serialize();
    auto want = host_->Search(query);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(AnswerIds(reply), want.value().answers);
    EXPECT_EQ(reply.GetNumberOr("candidates", -1),
              static_cast<double>(want.value().stats.candidates_final));
  }
}

TEST_F(ServerProtocolTest, MutationsAreVisibleAcrossConnections) {
  TcpSocket writer = Connect();
  const Graph& probe = fx_->db.at(4);

  JsonValue before = RoundTripJson(&writer, QueryRequest(probe));
  std::vector<int> base = AnswerIds(before);

  JsonValue add = JsonValue::Object();
  add.Set("op", "add");
  add.Set("graph", FormatGraph(probe, 0));
  JsonValue added = RoundTripJson(&writer, add);
  ASSERT_TRUE(added.GetBoolOr("ok", false)) << added.Serialize();
  const int new_id = static_cast<int>(added.GetNumberOr("id", -1));
  EXPECT_EQ(new_id, 20);
  EXPECT_EQ(added.GetNumberOr("epoch", -1), 1);

  // A different connection sees the add immediately (the ok reply is the
  // linearization point).
  TcpSocket reader = Connect();
  std::vector<int> with_new = base;
  with_new.push_back(new_id);
  EXPECT_EQ(AnswerIds(RoundTripJson(&reader, QueryRequest(probe))), with_new);

  JsonValue remove = JsonValue::Object();
  remove.Set("op", "remove");
  remove.Set("id", new_id);
  JsonValue removed = RoundTripJson(&writer, remove);
  EXPECT_TRUE(removed.GetBoolOr("ok", false));
  EXPECT_EQ(AnswerIds(RoundTripJson(&reader, QueryRequest(probe))), base);

  JsonValue compact = RoundTrip(&writer, "{\"op\":\"compact\"}");
  EXPECT_TRUE(compact.GetBoolOr("ok", false));
  EXPECT_GE(compact.GetNumberOr("compacted", -1), 1);
  // Compaction changes nothing a query can observe.
  EXPECT_EQ(AnswerIds(RoundTripJson(&reader, QueryRequest(probe))), base);
}

TEST_F(ServerProtocolTest, PerRequestSigmaOverride) {
  TcpSocket conn = Connect();
  const Graph& query = fx_->db.at(9);
  JsonValue request = QueryRequest(query);
  request.Set("sigma", 0.0);
  JsonValue reply = RoundTripJson(&conn, request);
  ASSERT_TRUE(reply.GetBoolOr("ok", false)) << reply.Serialize();

  PisOptions zero = host_->options();
  zero.sigma = 0.0;
  auto snap = host_->snapshot();
  PisEngine engine(snap->db.get(), snap->index.get(), zero);
  auto want = engine.Search(query);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(AnswerIds(reply), want.value().answers);

  request.Set("sigma", -1.0);
  JsonValue rejected = RoundTripJson(&conn, request);
  EXPECT_FALSE(rejected.GetBoolOr("ok", true));
}

TEST_F(ServerProtocolTest, ErrorsKeepTheConnectionUsable) {
  TcpSocket conn = Connect();
  for (const char* bad : {
           "this is not json",
           "[1,2,3]",
           "{\"op\":\"frobnicate\"}",
           "{}",
           "{\"op\":\"query\"}",
           "{\"op\":\"query\",\"graph\":\"not a graph record\"}",
           "{\"op\":\"remove\"}",
           "{\"op\":\"remove\",\"id\":99999}",
           "{\"op\":\"compact\",\"min_dead_ratio\":7}",
       }) {
    JsonValue reply = RoundTrip(&conn, std::string(bad));
    EXPECT_FALSE(reply.GetBoolOr("ok", true)) << bad;
    EXPECT_FALSE(reply.GetStringOr("error", "").empty()) << bad;
  }
  // After nine rejected requests the connection still serves.
  JsonValue health = RoundTrip(&conn, "{\"op\":\"health\"}");
  EXPECT_TRUE(health.GetBoolOr("ok", false));
}

/// Sum of `family`'s counter values in a registry's JSON mirror.
double CounterSum(const JsonValue& metrics, const std::string& family) {
  const JsonValue* fam = metrics.Find(family);
  EXPECT_NE(fam, nullptr) << family;
  double total = 0;
  if (fam == nullptr) return total;
  for (const JsonValue& v : fam->Find("values")->items()) {
    total += v.GetNumberOr("value", 0);
  }
  return total;
}

/// The first (label-free) child of `family` in a registry's JSON mirror.
JsonValue FirstChild(const JsonValue& metrics, const std::string& family) {
  const JsonValue* fam = metrics.Find(family);
  EXPECT_NE(fam, nullptr) << family;
  if (fam == nullptr || fam->Find("values")->size() == 0) return JsonValue();
  return fam->Find("values")->at(0);
}

TEST_F(ServerProtocolTest, MetricsOpAnswersWithoutARegistry) {
  // The fixture's server was built with no registry: it records into one
  // it owns, and the `metrics` op renders that.
  TcpSocket conn = Connect();
  JsonValue reply = RoundTrip(&conn, "{\"op\":\"metrics\"}");
  ASSERT_TRUE(reply.GetBoolOr("ok", false)) << reply.Serialize();
  const std::string text = reply.GetStringOr("text", "");
  EXPECT_NE(text.find("# TYPE pis_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pis_server_connections_total counter"),
            std::string::npos);
  EXPECT_NE(reply.GetStringOr("content_type", "").find("text/plain"),
            std::string::npos);
}

TEST_F(ServerProtocolTest, StatsAndMetricsRenderOneRegistry) {
  host_->EnableMetrics(&registry_);
  PisServerOptions options;
  options.num_workers = 2;
  options.metrics = &registry_;
  PisServer server(host_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto dialed = TcpSocket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  TcpSocket conn = dialed.MoveValue();

  int sent = 0;
  auto send = [&](const std::string& line) {
    ++sent;
    return RoundTrip(&conn, line);
  };
  EXPECT_TRUE(
      send(QueryRequest(fx_->db.at(3)).Serialize()).GetBoolOr("ok", false));
  JsonValue add = JsonValue::Object();
  add.Set("op", "add");
  add.Set("graph", FormatGraph(fx_->db.at(5), 0));
  EXPECT_TRUE(send(add.Serialize()).GetBoolOr("ok", false));
  EXPECT_TRUE(send("{\"op\":\"remove\",\"id\":20}").GetBoolOr("ok", false));
  // A malformed line never reaches an op, yet it is a request served.
  EXPECT_FALSE(send("this is not json").GetBoolOr("ok", true));
  EXPECT_FALSE(send("[1,2,3]").GetBoolOr("ok", true));

  JsonValue metrics = send("{\"op\":\"metrics\"}");
  ASSERT_TRUE(metrics.GetBoolOr("ok", false)) << metrics.Serialize();
  const std::string text = metrics.GetStringOr("text", "");
  for (const char* family : {
           "# TYPE pis_queries_total counter",
           "# TYPE pis_query_stage_seconds histogram",
           "# TYPE pis_snapshot_epoch gauge",
           "# TYPE pis_background_compactions_total counter",
           "# TYPE pis_checkpoints_total counter",
           "# TYPE pis_group_commit_batch_ops histogram",
           "# TYPE pis_group_commit_max_batch_ops gauge",
           "# TYPE pis_server_requests_total counter",
           "# TYPE pis_server_request_seconds histogram",
           "# TYPE pis_server_connections_total counter",
       }) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("pis_server_requests_total{op=\"other\"} 2\n"),
            std::string::npos)
      << text;

  // The stats counters are a rendering of the same instruments the
  // registry mirror (in the same reply) reads.
  JsonValue stats_reply = send("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats_reply.GetBoolOr("ok", false));
  const JsonValue& stats = *stats_reply.Find("stats");
  const JsonValue& mirror = *stats_reply.Find("metrics");
  const JsonValue batches = FirstChild(mirror, "pis_group_commit_batch_ops");
  EXPECT_EQ(stats.GetNumberOr("group_commit_batches", -1),
            batches.GetNumberOr("count", -2));
  EXPECT_EQ(stats.GetNumberOr("group_commit_ops", -1),
            batches.GetNumberOr("sum", -2));
  EXPECT_EQ(stats.GetNumberOr("group_commit_ops", -1), 2);
  EXPECT_EQ(stats.GetNumberOr("group_commit_batch_size", -1),
            FirstChild(mirror, "pis_group_commit_max_batch_ops")
                .GetNumberOr("value", -2));
  EXPECT_EQ(stats.GetNumberOr("background_compactions", -1),
            FirstChild(mirror, "pis_background_compactions_total")
                .GetNumberOr("value", -2));
  EXPECT_EQ(stats.GetNumberOr("checkpoints", -1),
            FirstChild(mirror, "pis_checkpoints_total")
                .GetNumberOr("value", -2));
  EXPECT_EQ(stats.GetNumberOr("epoch", -1),
            FirstChild(mirror, "pis_snapshot_epoch").GetNumberOr("value", -2));

  // Every line sent so far was answered and counted under exactly one op
  // (the stats request counts once its reply is built, so it is in
  // requests_served but not in the mirror above).
  EXPECT_EQ(CounterSum(mirror, "pis_server_requests_total"), sent - 1);
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(sent));
  EXPECT_EQ(server.connections_served(), 1u);
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerProtocolTest, ShutdownStopsTheServerCleanly) {
  TcpSocket conn = Connect();
  JsonValue reply = RoundTrip(&conn, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(reply.GetBoolOr("ok", false));
  EXPECT_EQ(reply.GetStringOr("status", ""), "stopping");
  // Wait() must return (the worker pool drained); the fixture's TearDown
  // would hang otherwise. requests_served counts the shutdown itself.
  server_->Wait();
  EXPECT_GE(server_->requests_served(), 1u);
  server_.reset();
}

}  // namespace
}  // namespace pis
