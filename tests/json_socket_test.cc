// util/json + util/socket: the protocol substrate of the serving layer.
// JSON must round-trip the values the protocol moves (graph records with
// newlines, ids, ratios) and reject malformed frames without crashing;
// sockets must frame lines exactly and unblock cleanly on shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/shard_ops.h"
#include "util/json.h"
#include "util/socket.h"

namespace pis {
namespace {

// A value is a type tag plus one 8-byte slot; a protocol reply is mostly
// numbers, so this is what its DOM costs per number.
static_assert(sizeof(JsonValue) <= 16);

JsonValue ParseOrDie(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.MoveValue() : JsonValue();
}

TEST(JsonTest, ObjectRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("op", "query");
  obj.Set("id", 17);
  obj.Set("ratio", 0.25);
  obj.Set("ok", true);
  obj.Set("note", JsonValue());
  JsonValue answers = JsonValue::Array();
  answers.Push(1);
  answers.Push(2);
  obj.Set("answers", std::move(answers));

  const std::string text = obj.Serialize();
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().GetStringOr("op", ""), "query");
  EXPECT_EQ(parsed.value().GetNumberOr("id", -1), 17);
  EXPECT_EQ(parsed.value().GetNumberOr("ratio", -1), 0.25);
  EXPECT_TRUE(parsed.value().GetBoolOr("ok", false));
  ASSERT_NE(parsed.value().Find("note"), nullptr);
  EXPECT_TRUE(parsed.value().Find("note")->is_null());
  const JsonValue* arr = parsed.value().Find("answers");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 2u);
  EXPECT_EQ(arr->at(0).AsNumber(), 1);
  // Serialization is deterministic (sorted keys), so it is its own golden.
  EXPECT_EQ(parsed.value().Serialize(), text);
}

TEST(JsonTest, IntegersRenderWithoutDecimalPoint) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", 42);
  obj.Set("big", static_cast<uint64_t>(1) << 40);
  EXPECT_EQ(obj.Serialize(), "{\"big\":1099511627776,\"id\":42}");
}

TEST(JsonTest, EscapesRoundTrip) {
  // A graph record is a multi-line string — exactly what must survive.
  const std::string record = "t # 0\nv 0 1\nv 1 2\ne 0 1 1\n\t\"quoted\"\\";
  JsonValue obj = JsonValue::Object();
  obj.Set("graph", record);
  auto parsed = JsonValue::Parse(obj.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetStringOr("graph", ""), record);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto parsed = JsonValue::Parse("\"a\\u00e9\\u4e2d\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), "a\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonTest, ParseErrors) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "{\"a\":1}x",
        "\"bad\\escape\"", "01a", "nan", "\"ctrl\x01char\""}) {
    auto parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

// RFC 8259 number grammar: no leading '.', no trailing '.', no empty
// exponent, no leading zeros, no bare sign, no '+' prefix. strtod accepts
// most of these; the parser must not.
TEST(JsonTest, NonRfc8259NumbersRejected) {
  for (const char* bad : {".5", "1.", "1.e5", "01", "-01", "00", "-", "+1",
                          "1e", "1e+", "1e-", "0x1f", "1.2.3", "--1", "Inf",
                          "infinity", "NaN", "- 1"}) {
    auto parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

TEST(JsonTest, Rfc8259NumbersAccepted) {
  const struct {
    const char* text;
    double value;
  } cases[] = {{"0", 0.0},        {"-0", -0.0},     {"0.5", 0.5},
               {"-0.5", -0.5},    {"10", 10.0},     {"1e5", 1e5},
               {"1E5", 1e5},      {"1e+5", 1e5},    {"1e-5", 1e-5},
               {"0e0", 0.0},      {"1.25e2", 125.0}};
  for (const auto& c : cases) {
    auto parsed = JsonValue::Parse(c.text);
    ASSERT_TRUE(parsed.ok()) << c.text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().AsNumber(), c.value) << c.text;
  }
}

// Serialization uses shortest-round-trip formatting (std::to_chars), so
// any finite double — however many significant digits it needs — must
// survive Serialize -> Parse exactly. %.12g, the previous formatter, fails
// this for most irrational-looking values (e.g. 0.1 + 0.2).
TEST(JsonTest, DoublesRoundTripExactly) {
  std::mt19937_64 rng(20260808);
  std::vector<double> values = {0.1,
                                0.1 + 0.2,
                                1.0 / 3.0,
                                6.02214076e23,
                                -2.2250738585072014e-308,  // min normal
                                5e-324,                    // min subnormal
                                1.7976931348623157e308,    // max finite
                                123456.789012345678,
                                -0.000001234567890123456};
  // Random bit patterns cover the space far beyond hand-picked cases.
  std::uniform_int_distribution<uint64_t> bits;
  while (values.size() < 500) {
    uint64_t raw = bits(rng);
    double d;
    std::memcpy(&d, &raw, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
  }
  for (double d : values) {
    const std::string text = JsonValue(d).Serialize();
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const double back = parsed.value().AsNumber();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0)
        << "wanted " << d << ", got " << back << " via " << text;
  }
}

// JSON has no Infinity/NaN literals; serializing one must degrade to null
// (parseable) rather than emit text no parser accepts.
TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Serialize(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).Serialize(),
            "null");
  EXPECT_EQ(JsonValue(std::nan("")).Serialize(), "null");
}

TEST(JsonTest, NestingDepthIsBounded) {
  std::string deep(200, '[');
  auto parsed = JsonValue::Parse(deep);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("deep"), std::string::npos);
}

TEST(JsonTest, DeepCopyIsIndependentOfItsSource) {
  const std::string text =
      R"({"a":[1,2,{"b":"x"}],"o":{"k":true},"s":"str"})";
  JsonValue source = ParseOrDie(text);
  JsonValue copy = source;
  JsonValue assigned;
  assigned = source;
  source.Set("s", "changed");
  source.Set("a", 5);
  source.Set("new", JsonValue::Array());
  EXPECT_EQ(copy.Serialize(), text);
  EXPECT_EQ(assigned.Serialize(), text);
  // And the other way round: changing a copy leaves the source alone.
  JsonValue array = ParseOrDie("[[1],[2]]");
  JsonValue array_copy = array;
  array_copy.Push("tail");
  EXPECT_EQ(array.Serialize(), "[[1],[2]]");
  EXPECT_EQ(array_copy.Serialize(), R"([[1],[2],"tail"])");
  // Self-assignment keeps the value.
  JsonValue& alias = array;
  array = alias;
  EXPECT_EQ(array.Serialize(), "[[1],[2]]");
}

TEST(JsonTest, MovedFromValueIsValid) {
  JsonValue source = ParseOrDie(R"({"a":[1,2],"s":"long enough to allocate"})");
  JsonValue moved = std::move(source);
  EXPECT_EQ(moved.Serialize(), R"({"a":[1,2],"s":"long enough to allocate"})");
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_TRUE(source.is_null());
  EXPECT_EQ(source.Serialize(), "null");
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(source.Find("a"), nullptr);
  source.Push(1);
  EXPECT_EQ(source.Serialize(), "[1]");
  JsonValue target = "old";
  target = std::move(moved);
  EXPECT_TRUE(moved.is_null());
  moved.Set("k", 2);
  EXPECT_EQ(moved.Serialize(), R"({"k":2})");
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(target.GetStringOr("s", ""), "long enough to allocate");
  // Moving a member out of its own container into the container.
  JsonValue outer = ParseOrDie(R"({"inner":{"x":[7]}})");
  JsonValue inner = *outer.Find("inner");
  outer = std::move(inner);
  EXPECT_EQ(outer.Serialize(), R"({"x":[7]})");
}

TEST(JsonTest, SetAndPushConvertOtherTypes) {
  JsonValue number = 3.5;
  number.Set("k", 1);
  EXPECT_TRUE(number.is_object());
  EXPECT_EQ(number.Serialize(), R"({"k":1})");
  JsonValue array = ParseOrDie("[1,2,3]");
  array.Set("k", true);
  EXPECT_EQ(array.Serialize(), R"({"k":true})");
  JsonValue object = ParseOrDie(R"({"a":1})");
  object.Push(2);
  EXPECT_TRUE(object.is_array());
  EXPECT_EQ(object.Serialize(), "[2]");
  JsonValue string = "text";
  string.Push("x");
  EXPECT_EQ(string.Serialize(), R"(["x"])");
  JsonValue named = "key";
  named.Set(named.AsString(), 1);
  EXPECT_EQ(named.Serialize(), R"({"key":1})");
  JsonValue null;
  null.Push(JsonValue());
  EXPECT_EQ(null.Serialize(), "[null]");
  // Typed reads of another type read as false, 0 and "".
  EXPECT_FALSE(JsonValue(1.0).AsBool());
  EXPECT_EQ(JsonValue(true).AsNumber(), 0);
  EXPECT_EQ(JsonValue(2).AsString(), "");
  EXPECT_TRUE(JsonValue("s").items().empty());
  EXPECT_TRUE(JsonValue::Array().members().empty());
}

TEST(JsonTest, DuplicateKeyKeepsLastValue) {
  JsonValue parsed =
      ParseOrDie(R"({"b":1,"a":2,"b":3,"a":{"z":0},"c":4,"b":5})");
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.Serialize(), R"({"a":{"z":0},"b":5,"c":4})");
  parsed.Set("b", 7);
  parsed.Set("aa", 8);
  EXPECT_EQ(parsed.Serialize(), R"({"a":{"z":0},"aa":8,"b":7,"c":4})");
}

// Members are appended and sorted once per object: one sorted insertion
// per key would make this line quadratic (~1e10 member moves). The bound
// is relative to parsing the same 200k keys as an array of strings, so it
// holds in sanitizer and debug builds too (an optimized build parses the
// object in well under a second; 84 ms on a 4-vCPU host).
TEST(JsonTest, ManyDistinctKeysParseInLinearithmicTime) {
  constexpr int kKeys = 200000;
  std::string object = "{";
  std::string array = "[";
  for (int i = kKeys - 1; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof(key), "\"k%06d\"", i);
    object += key;
    object += ':' + std::to_string(i);
    array += key;
    if (i > 0) {
      object += ',';
      array += ',';
    }
  }
  object += '}';
  array += ']';
  auto seconds_to_parse = [](const std::string& text, JsonValue* out) {
    const auto start = std::chrono::steady_clock::now();
    auto parsed = JsonValue::Parse(text);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (parsed.ok()) *out = parsed.MoveValue();
    return seconds;
  };
  JsonValue strings;
  JsonValue parsed;
  const double array_seconds = seconds_to_parse(array, &strings);
  const double object_seconds = seconds_to_parse(object, &parsed);
  EXPECT_EQ(strings.size(), static_cast<size_t>(kKeys));
  EXPECT_LT(object_seconds, 20 * array_seconds)
      << object_seconds << " s for the object, " << array_seconds
      << " s for the array";
  EXPECT_EQ(parsed.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(parsed.GetNumberOr("k000000", -1), 0);
  EXPECT_EQ(parsed.GetNumberOr("k123456", -1), 123456);
  EXPECT_EQ(parsed.members().front().first, "k000000");
  EXPECT_EQ(parsed.members().back().first, "k199999");
}

// Reply lines a server of the std::map-based JsonValue wrote (a 3-shard
// index over 40 generated molecules, the 6-ring of graph 0 as the query, σ
// = 1): shard_filter, shard_refine, query and metrics. Parsing and
// re-serializing each must give its exact bytes, and so must decoding and
// re-encoding the shard_filter and shard_refine payloads. The shard_refine
// line predates its "partition_candidates" member, which was added to it by
// hand (13, its candidate count) when the reply gained the field.
TEST(JsonTest, SerializeMatchesRecordedReplyLines) {
  std::ifstream in(std::string(PIS_TEST_DATA_DIR) + "/recorded_replies.jsonl");
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    EXPECT_EQ(ParseOrDie(line).Serialize(), line);
  }
  const JsonValue filter = ParseOrDie(lines[0]);
  auto decoded_filter = ShardFilterReplyFromJson(filter);
  ASSERT_TRUE(decoded_filter.ok()) << decoded_filter.status().ToString();
  EXPECT_EQ(decoded_filter.value().shards, (std::vector<int>{0, 1, 2}));
  JsonValue encoded_filter = JsonValue::Object();
  encoded_filter.Set("ok", true);
  ShardFilterReplyToJson(decoded_filter.value(), &encoded_filter);
  EXPECT_EQ(encoded_filter.Serialize(), lines[0]);

  const JsonValue refine = ParseOrDie(lines[1]);
  auto decoded_refine = ShardRefineReplyFromJson(refine);
  ASSERT_TRUE(decoded_refine.ok()) << decoded_refine.status().ToString();
  JsonValue encoded_refine = JsonValue::Object();
  encoded_refine.Set("ok", true);
  ShardRefineReplyToJson(decoded_refine.value(), &encoded_refine);
  EXPECT_EQ(encoded_refine.Serialize(), lines[1]);

  EXPECT_TRUE(ParseOrDie(lines[2]).Has("answers"));
  EXPECT_NE(ParseOrDie(lines[3]).GetStringOr("text", "").find("# TYPE"),
            std::string::npos);
}

TEST(JsonTest, GetOrHelpersFallBackOnWrongType) {
  auto parsed = JsonValue::Parse("{\"s\":\"x\",\"n\":3}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetNumberOr("s", -1), -1);
  EXPECT_EQ(parsed.value().GetStringOr("n", "fallback"), "fallback");
  EXPECT_EQ(parsed.value().GetNumberOr("missing", 7), 7);
}

TEST(SocketTest, LoopbackLineRoundTrip) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_GT(listener.value().port(), 0);

  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    // Echo until the client hangs up.
    while (true) {
      auto line = conn.value().RecvLine();
      if (!line.ok()) break;
      ASSERT_TRUE(conn.value().SendLine("echo " + line.value()).ok());
    }
  });

  auto client = TcpSocket::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Two frames sent back to back exercise the framing buffer: the first
  // RecvLine may pull both into the buffer.
  ASSERT_TRUE(client.value().SendLine("one").ok());
  ASSERT_TRUE(client.value().SendLine("two").ok());
  auto first = client.value().RecvLine();
  auto second = client.value().RecvLine();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), "echo one");
  EXPECT_EQ(second.value(), "echo two");

  client.value().Close();
  server.join();
}

TEST(SocketTest, RecvLineReportsCleanEofAsConnectionClosed) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    conn.value().Close();
  });
  auto client = TcpSocket::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  auto line = client.value().RecvLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kIOError);
  EXPECT_NE(line.status().message().find("closed"), std::string::npos);
  server.join();
}

TEST(SocketTest, ShutdownUnblocksAccept) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread acceptor([&] {
    auto conn = listener.value().Accept();
    EXPECT_FALSE(conn.ok());
  });
  // Give the acceptor a moment to park in accept(2); the shutdown must
  // still unblock it even if it has not parked yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.value().Shutdown();
  acceptor.join();
}

// The deadline contract that keeps a wedged replica from hanging the
// router: a peer that accepts traffic but never answers must yield
// DeadlineExceeded, not block forever.
TEST(SocketTest, DeadlineExpiresOnDeliberatelySilentServer) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    // Swallow the request and say nothing; hold the connection open until
    // the client hangs up so the silence is the only signal.
    auto request = conn.value().RecvLine();
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request.value(), "ping");
    (void)conn.value().RecvLine();  // parks until the client closes
  });

  auto client = TcpSocket::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().SetDeadline(100).ok());
  ASSERT_TRUE(client.value().SendLine("ping").ok());
  auto reply = client.value().RecvLine();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  client.value().Close();
  server.join();
}

// Connect(timeout_ms) must install the same deadline on the connected
// socket — the caller gets silent-peer protection without a second call.
TEST(SocketTest, ConnectTimeoutInstallsIoDeadline) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    (void)conn.value().RecvLine();  // never replies; parks until close
  });

  auto client =
      TcpSocket::Connect("127.0.0.1", listener.value().port(),
                         /*timeout_ms=*/100);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = client.value().RecvLine();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  client.value().Close();
  server.join();
}

// A timed-out read poisons nothing: once the peer does answer, the same
// socket delivers the frame (the router relies on this when it retries a
// slow-but-alive replica after a failover round).
TEST(SocketTest, SocketSurvivesDeadlineExpiryAndReadsLateReply) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    auto first = conn.value().RecvLine();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), "ping");
    // Reply only when the client explicitly asks — the client's first
    // read is guaranteed to time out, no sleep races.
    auto go = conn.value().RecvLine();
    ASSERT_TRUE(go.ok());
    EXPECT_EQ(go.value(), "now");
    ASSERT_TRUE(conn.value().SendLine("pong").ok());
  });

  auto client = TcpSocket::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().SetDeadline(100).ok());
  ASSERT_TRUE(client.value().SendLine("ping").ok());
  auto timed_out = client.value().RecvLine();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(client.value().SetDeadline(10000).ok());
  ASSERT_TRUE(client.value().SendLine("now").ok());
  auto reply = client.value().RecvLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value(), "pong");
  client.value().Close();
  server.join();
}

TEST(SocketTest, OversizedFrameIsRejected) {
  auto listener = TcpListener::Listen(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    auto line = conn.value().RecvLine(/*max_bytes=*/64);
    EXPECT_FALSE(line.ok());
    EXPECT_EQ(line.status().code(), StatusCode::kInvalidArgument);
  });
  auto client = TcpSocket::Connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().SendLine(std::string(1024, 'x')).ok());
  server.join();
}

}  // namespace
}  // namespace pis
