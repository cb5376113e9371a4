// Robustness fuzzing for the newline-delimited JSON protocol servers
// (pis_server and the router front end): malformed frames — truncated
// JSON, non-object payloads, invalid numbers, binary garbage, oversize
// lines, interleaved half-writes from concurrent sockets — must produce a
// clean {"ok":false,...} reply (or a documented connection drop for
// oversize frames), never a crash, a wedged worker, or a poisoned
// connection. Every test ends by proving the server still answers health
// checks on a fresh connection.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/pis_server.h"
#include "server/router_server.h"
#include "server/shard_backend.h"
#include "util/json.h"
#include "util/random.h"
#include "util/socket.h"

namespace pis {
namespace {

/// A small but real engine host: the fuzzers must exercise the full
/// request pipeline (parse -> validate -> engine), not a stub.
std::unique_ptr<EngineHost> MakeHost(int num_shards) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 4242;
  gopt.mean_vertices = 10;
  gopt.max_vertices = 20;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(8);

  GspanOptions mine;
  mine.min_support = 2;
  mine.max_edges = 3;
  auto patterns = MineFrequentSubgraphs(db, mine);
  EXPECT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);
  EXPECT_FALSE(features.empty());

  FragmentIndexOptions iopt;
  iopt.max_fragment_edges = 3;
  auto index = ShardedFragmentIndex::Build(db, features, iopt, num_shards);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return nullptr;
  PisOptions popt;
  popt.sigma = 2.0;
  return std::make_unique<EngineHost>(std::move(db), index.MoveValue(), popt);
}

Result<TcpSocket> Dial(int port) {
  return TcpSocket::Connect("127.0.0.1", port, /*timeout_ms=*/10000);
}

/// One round trip that must come back as a parsable JSON object.
Result<JsonValue> RoundTrip(TcpSocket* conn, const std::string& line) {
  PIS_RETURN_NOT_OK(conn->SendLine(line));
  PIS_ASSIGN_OR_RETURN(std::string reply, conn->RecvLine());
  return JsonValue::Parse(reply);
}

/// The connection-stays-usable probe: a valid request after garbage must
/// still succeed on the same socket.
void ExpectHealthy(TcpSocket* conn) {
  auto reply = RoundTrip(conn, R"({"op":"health"})");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().GetBoolOr("ok", false))
      << reply.value().Serialize();
}

/// Malformed frames every protocol server must reject identically: a
/// clean {"ok":false,"code":...} reply with the connection left usable.
const std::vector<std::string>& MalformedFrames() {
  static const std::vector<std::string>* frames = new std::vector<std::string>{
      // Truncated / structurally invalid JSON.
      R"({"op":"quer)",
      R"({"op":"query","graph":)",
      R"({{{)",
      R"(})",
      // Valid JSON, wrong shape.
      R"([1,2,3])",
      R"("just a string")",
      R"(42)",
      R"(null)",
      R"({})",
      // Invalid numbers where strict int32 ids are required.
      R"({"op":"remove","id":3.5})",
      R"({"op":"remove","id":-1})",
      R"({"op":"remove","id":1e18})",
      R"({"op":"remove","id":"7"})",
      R"({"op":"remove"})",
      // Bad graph payloads.
      R"({"op":"query"})",
      R"({"op":"query","graph":42})",
      R"({"op":"query","graph":"not a graph record"})",
      R"({"op":"query","graph":"t # 0","sigma":"two"})",
      // Binary garbage (no newline — that is the frame delimiter).
      std::string("\x01\x02\xff\xfe{\"op\":\x00\x7f", 12),
      // Unknown ops.
      R"({"op":"nope"})",
      R"({"op":""})",
  };
  return *frames;
}

void FuzzMalformedFrames(int port, const std::vector<std::string>& extra) {
  auto conn = Dial(port);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  std::vector<std::string> frames = MalformedFrames();
  frames.insert(frames.end(), extra.begin(), extra.end());
  for (const std::string& frame : frames) {
    auto reply = RoundTrip(&conn.value(), frame);
    ASSERT_TRUE(reply.ok())
        << "no clean reply to frame: " << frame << " — "
        << reply.status().ToString();
    EXPECT_TRUE(reply.value().is_object()) << reply.value().Serialize();
    EXPECT_FALSE(reply.value().GetBoolOr("ok", true))
        << "accepted malformed frame " << frame << ": "
        << reply.value().Serialize();
    EXPECT_TRUE(reply.value().Has("code"))
        << "error reply without code: " << reply.value().Serialize();
    ExpectHealthy(&conn.value());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ProtocolFuzzTest, ServerRejectsMalformedFramesCleanly) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());
  // Cluster-fabric ops get the same treatment, including shard bounds.
  FuzzMalformedFrames(
      server.port(),
      {
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","sigma":1})",
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[],"sigma":1})",
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[99],"sigma":1})",
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[0.5],"sigma":1})",
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[1,0],"sigma":1})",
          R"({"op":"shard_filter","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[0]})",
          R"({"op":"shard_refine","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shard":0,"partition":[],"classes":[],"survivors":[1,0],"sigma":1})",
          R"({"op":"shard_refine","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shard":0,"partition":[99],"classes":[0],"survivors":[],"sigma":1})",
          R"({"op":"shard_refine","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shard":0,"partition":[],"classes":[],"survivors":[999],"sigma":1})",
          R"({"op":"shard_refine","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shard":7,"partition":[],"classes":[],"survivors":[],"sigma":1})",
          // The ops the two above replaced are unknown now.
          R"({"op":"shard_query","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","shards":[0]})",
          R"({"op":"shard_verify","graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1","ids":[0],"sigma":1})",
          R"({"op":"shard_add","gid":0,"shard":0})",
          R"({"op":"shard_add","gid":-1,"shard":0,"graph":"t # 0\nv 0 1"})",
          R"({"op":"shard_remove","id":2.5})",
      });
  EXPECT_TRUE(server.running());
  server.Shutdown();
  server.Wait();
}

// A router and its replicas upgrade together: an op the replica does not
// know comes back as an error naming it, which the router surfaces as is.
TEST(ProtocolFuzzTest, RetiredClusterOpsAreUnknown) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto conn = Dial(server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  for (const char* op : {"shard_query", "shard_verify"}) {
    auto reply = RoundTrip(&conn.value(), std::string(R"({"op":")") + op +
                                              R"(","shards":[0]})");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply.value().GetBoolOr("ok", true));
    EXPECT_NE(reply.value().GetStringOr("error", "").find(
                  std::string("unknown op \"") + op + "\""),
              std::string::npos)
        << reply.value().Serialize();
  }
  server.Shutdown();
  server.Wait();
}

TEST(ProtocolFuzzTest, RouterRejectsMalformedFramesCleanly) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());

  ClusterManifest manifest;
  manifest.shards.resize(2);
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  manifest.shards[0].replicas.push_back(endpoint);
  manifest.shards[1].replicas.push_back(endpoint);
  ClusterEngineOptions copt;
  copt.timeout_ms = 10000;
  copt.options.sigma = 2.0;
  auto cluster = ClusterEngine::Connect(manifest, copt);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  RouterServer router(cluster.value().get(), {});
  ASSERT_TRUE(router.Start().ok());

  FuzzMalformedFrames(router.port(), {R"({"op":"add"})",
                                      R"({"op":"add","graph":17})",
                                      R"({"op":"remove","id":1e300})"});
  EXPECT_TRUE(router.running());
  EXPECT_TRUE(server.running());
  router.Shutdown();
  router.Wait();
  server.Shutdown();
  server.Wait();
}

/// A replica whose shard_refine replies pass through `tamper` (given the
/// request and the reply) before the router decodes them.
class TamperedRefineBackend : public LocalShardBackend {
 public:
  using Tamper = std::function<void(const JsonValue&, JsonValue*)>;
  TamperedRefineBackend(EngineHost* host, Tamper tamper)
      : LocalShardBackend(host, {}, "tampered"), tamper_(std::move(tamper)) {}

 protected:
  Result<JsonValue> Exchange(const JsonValue& request) override {
    PIS_ASSIGN_OR_RETURN(JsonValue reply, LocalShardBackend::Exchange(request));
    if (request.GetStringOr("op", "") == "shard_refine" &&
        reply.GetBoolOr("ok", false)) {
      tamper_(request, &reply);
    }
    return reply;
  }

 private:
  Tamper tamper_;
};

// shard_refine's partition_candidates (the shard's Yp count) is decoded
// strictly: an exact integer between the reply's candidate count and the
// request's survivor count. An honest replica's counts add up to
// PisEngine's; a bad one fails the query with InvalidArgument.
/// `query` through a router whose one replica serves both of `host`'s
/// shards and rewrites every successful shard_refine reply with `tamper`.
Result<SearchResult> SearchThroughTamperedReplica(
    EngineHost* host, const Graph& query,
    TamperedRefineBackend::Tamper tamper) {
  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.push_back(
      std::make_unique<TamperedRefineBackend>(host, std::move(tamper)));
  ClusterEngineOptions copt;
  copt.options = host->options();
  ClusterEngine cluster(std::move(backends), {{0, 1}}, copt);
  Status booted = cluster.Bootstrap();
  EXPECT_TRUE(booted.ok()) << booted.ToString();
  return cluster.Search(query);
}

TEST(ProtocolFuzzTest, RouterChecksRefinePartitionCandidates) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  const Graph query = host->snapshot()->db->at(1);
  auto local = host->snapshot()->engine.Search(query);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_FALSE(local.value().candidates.empty());
  auto search = [&](TamperedRefineBackend::Tamper tamper) {
    return SearchThroughTamperedReplica(host.get(), query, std::move(tamper));
  };

  auto honest = search([](const JsonValue&, JsonValue*) {});
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  EXPECT_EQ(honest.value().stats.candidates_after_partition,
            local.value().stats.candidates_after_partition);
  EXPECT_EQ(honest.value().candidates, local.value().candidates);
  EXPECT_EQ(honest.value().answers, local.value().answers);

  std::vector<TamperedRefineBackend::Tamper> bad;
  for (JsonValue value : {JsonValue(2.5), JsonValue(-1), JsonValue("7"),
                          JsonValue(1e30), JsonValue()}) {
    bad.push_back([value](const JsonValue&, JsonValue* reply) {
      reply->Set("partition_candidates", value);
    });
  }
  bad.push_back([](const JsonValue&, JsonValue* reply) {
    const JsonValue* candidates = reply->Find("candidates");
    reply->Set("partition_candidates",
               static_cast<int>(candidates->size()) - 1);
  });
  bad.push_back([](const JsonValue& request, JsonValue* reply) {
    const JsonValue* survivors = request.Find("survivors");
    reply->Set("partition_candidates",
               static_cast<int>(survivors->size()) + 1);
  });
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("tamper " + std::to_string(i));
    auto result = search(bad[i]);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
  }
}

// A replica may only narrow the survivors it was sent: a shard_refine reply
// whose candidates (and so answers) name a gid outside them fails the query
// with InvalidArgument instead of reaching the client as an answer.
TEST(ProtocolFuzzTest, RouterChecksRefineCandidatesWereSent) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  const Graph query = host->snapshot()->db->at(1);
  auto honest = SearchThroughTamperedReplica(
      host.get(), query, [](const JsonValue&, JsonValue*) {});
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  ASSERT_FALSE(honest.value().answers.empty());

  // Each tamper keeps the reply well-formed for the decoder: ascending
  // ids, answers inside candidates, a partition count between the two.
  auto rewrite = [](std::vector<int> ids) {
    return [ids](const JsonValue& request, JsonValue* reply) {
      const JsonValue* survivors = request.Find("survivors");
      if (survivors->size() == 0) return;
      JsonValue list = JsonValue::Array();
      for (int id : ids) {
        list.Push(JsonValue(id < 0 ? survivors->at(0).AsNumber() : id));
      }
      reply->Set("candidates", list);
      reply->Set("answers", list);
      reply->Set("partition_candidates",
                 static_cast<int>(survivors->size()));
    };
  };
  const std::vector<std::vector<int>> lies = {
      {999},     // a gid no shard holds
      {-1, 999}  // a real survivor, then an unsent gid
  };
  for (size_t i = 0; i < lies.size(); ++i) {
    SCOPED_TRACE("tamper " + std::to_string(i));
    auto result = SearchThroughTamperedReplica(host.get(), query,
                                               rewrite(lies[i]));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
  }
  // Dropping candidates is what refining does: still accepted.
  auto narrowed = SearchThroughTamperedReplica(host.get(), query,
                                               rewrite({-1}));
  ASSERT_TRUE(narrowed.ok()) << narrowed.status().ToString();
}

TEST(ProtocolFuzzTest, OversizeFrameErrorsThenDropsConnection) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServerOptions sopt;
  sopt.max_request_bytes = 1024;
  PisServer server(host.get(), sopt);
  ASSERT_TRUE(server.Start().ok());

  auto conn = Dial(server.port());
  ASSERT_TRUE(conn.ok());
  auto reply = RoundTrip(&conn.value(), std::string(8 * 1024, 'x'));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.value().GetBoolOr("ok", true));
  EXPECT_TRUE(reply.value().Has("code")) << reply.value().Serialize();

  // The connection is dropped after the error (the tail of the oversize
  // frame cannot be reframed safely); a later round trip must fail...
  auto dead = RoundTrip(&conn.value(), R"({"op":"health"})");
  EXPECT_FALSE(dead.ok());

  // ...but the server keeps serving fresh connections.
  auto fresh = Dial(server.port());
  ASSERT_TRUE(fresh.ok());
  ExpectHealthy(&fresh.value());
  EXPECT_TRUE(server.running());
  server.Shutdown();
  server.Wait();
}

TEST(ProtocolFuzzTest, InterleavedHalfWritesKeepConnectionsIndependent) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());

  auto slow = Dial(server.port());
  auto fast = Dial(server.port());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());

  // `slow` parks half a frame in the server's connection buffer...
  const std::string request = R"({"op":"health"})";
  const std::string head = request.substr(0, 7);
  const std::string tail = request.substr(7) + "\n";
  ASSERT_EQ(::send(slow.value().fd(), head.data(), head.size(), 0),
            static_cast<ssize_t>(head.size()));

  // ...which must not wedge or contaminate other connections.
  for (int i = 0; i < 3; ++i) {
    ExpectHealthy(&fast.value());
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Completing the frame later yields a normal reply on `slow`.
  ASSERT_EQ(::send(slow.value().fd(), tail.data(), tail.size(), 0),
            static_cast<ssize_t>(tail.size()));
  auto reply = slow.value().RecvLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto parsed = JsonValue::Parse(reply.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().GetBoolOr("ok", false));

  server.Shutdown();
  server.Wait();
}

TEST(ProtocolFuzzTest, RandomGarbageNeverCrashesOrWedges) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());

  Rng rng(20260808);
  // Bias toward JSON-ish punctuation so frames get deep into the parser,
  // with raw control/8-bit bytes mixed in ('\n' excluded: frame delimiter).
  const std::string alphabet =
      "{}[]\":,.0123456789eE+-truefalsnopqisd \t\\/";
  auto conn = Dial(server.port());
  ASSERT_TRUE(conn.ok());
  for (int iter = 0; iter < 200; ++iter) {
    if (iter % 50 == 49) {  // periodically start over on a fresh socket
      conn = Dial(server.port());
      ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    }
    // Length >= 1: an empty line is a protocol keep-alive (no reply).
    const int len = rng.UniformInt(1, 120);
    std::string frame;
    frame.reserve(len);
    for (int i = 0; i < len; ++i) {
      if (rng.UniformInt(0, 9) == 0) {
        char raw = static_cast<char>(rng.UniformInt(0, 255));
        frame.push_back(raw == '\n' ? '\r' : raw);
      } else {
        frame.push_back(
            alphabet[rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1)]);
      }
    }
    auto reply = RoundTrip(&conn.value(), frame);
    ASSERT_TRUE(reply.ok())
        << "server stopped replying at iteration " << iter << ": "
        << reply.status().ToString();
    EXPECT_TRUE(reply.value().is_object());
  }
  ExpectHealthy(&conn.value());
  EXPECT_TRUE(server.running());
  server.Shutdown();
  server.Wait();
}

/// Blank lines are keep-alives: no reply, and the next real request on
/// the same connection is answered normally.
TEST(ProtocolFuzzTest, BlankLinesAreKeepAlives) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServer server(host.get(), {});
  ASSERT_TRUE(server.Start().ok());

  auto conn = Dial(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().SendLine("").ok());
  ASSERT_TRUE(conn.value().SendLine("").ok());
  ExpectHealthy(&conn.value());  // the reply is for health, not the blanks
  server.Shutdown();
  server.Wait();
}

/// A peer that connects and vanishes without a byte (or mid-frame) must
/// cost the server nothing but the connection count.
TEST(ProtocolFuzzTest, AbandonedConnectionsAreHarmless) {
  auto host = MakeHost(2);
  ASSERT_NE(host, nullptr);
  PisServerOptions sopt;
  sopt.num_workers = 2;
  PisServer server(host.get(), sopt);
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 8; ++i) {
    auto conn = Dial(server.port());
    ASSERT_TRUE(conn.ok());
    if (i % 2 == 0) {
      const char byte = '{';
      ASSERT_EQ(::send(conn.value().fd(), &byte, 1, 0), 1);
    }
    // Dropped here: ~TcpSocket closes mid-frame.
  }
  auto conn = Dial(server.port());
  ASSERT_TRUE(conn.ok());
  ExpectHealthy(&conn.value());
  EXPECT_TRUE(server.running());
  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace pis
