// Strict decoding of replica replies and requests: the router trusts every
// id, count, distance and epoch a replica sends, so a fractional, negative,
// or out-of-range JSON number, an unsorted id list, or a malformed
// histogram must come back as InvalidArgument from the shard_ops codecs —
// never be truncated or cast (a cast of 1e12 to int, or of -1 to uint64_t,
// is undefined behaviour).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "graph/io.h"
#include "server/shard_ops.h"
#include "util/json.h"

namespace pis {
namespace {

JsonValue Parse(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? parsed.MoveValue() : JsonValue();
}

template <typename Decode>
void ExpectRejected(Decode decode, const std::vector<std::string>& replies) {
  for (const std::string& text : replies) {
    EXPECT_EQ(decode(Parse(text)).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

const char* const kBadNumbers[] = {"2.5", "-1", "18446744073709551616",
                                   "1e30", "\"7\""};

TEST(ShardCodecTest, EpochDecodesExactUnsignedIntegersOnly) {
  auto ok = EpochFromJson(Parse(R"({"epoch":9007199254740992})"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(), 9007199254740992u);
  std::vector<std::string> bad = {"{}"};
  for (const char* n : kBadNumbers) {
    bad.push_back(R"({"epoch":)" + std::string(n) + "}");
  }
  ExpectRejected(EpochFromJson, bad);
}

TEST(ShardCodecTest, MetaRejectsInexactNumbers) {
  auto meta = [](const std::string& epoch, const std::string& slots,
                 const std::string& routing) {
    return R"({"epoch":)" + epoch + R"(,"db_slots":)" + slots +
           R"(,"num_shards":2,"shards_owned":[0,1],"routing":)" + routing +
           R"(,"tombstones":[]})";
  };
  auto ok = ShardMetaFromJson(Parse(meta("4", "3", "[0,1,-1]")));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().epoch, 4u);
  EXPECT_EQ(ok.value().routing, (std::vector<int>{0, 1, -1}));
  // Routing admits -1 (compacted away), but no other non-shard.
  std::vector<std::string> bad = {meta("4", "3", "[0,1.5,-1]"),
                                  meta("4", "3", "[0,1e30,-1]"),
                                  meta("4", "3", "[0,1,-2]")};
  for (const char* n : kBadNumbers) {
    bad.push_back(meta(n, "3", "[0,1,-1]"));
    bad.push_back(meta("4", n, "[0,1,-1]"));
  }
  ExpectRejected(ShardMetaFromJson, bad);
}

/// A one-fragment, one-shard shard_filter reply with the given fields.
std::string FilterReply(const std::string& epoch, const std::string& class_id,
                        const std::string& survivors,
                        const std::string& histogram,
                        const std::string& live = "9") {
  return R"({"epoch":)" + epoch + R"(,"fragments":[{"class_id":)" +
         class_id + R"(,"vertices":[0,1]}],"shards":[{"shard":1,"live":)" +
         live + R"(,"survivors":)" + survivors + R"(,"histograms":[)" +
         histogram + "]}]}";
}

TEST(ShardCodecTest, FilterReplyRejectsInexactNumbers) {
  auto ok = ShardFilterReplyFromJson(
      Parse(FilterReply("2", "5", "[3,17]", "[[0.5,2],[1,1]]")));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().epoch, 2u);
  EXPECT_EQ(ok.value().shards, (std::vector<int>{1}));
  ASSERT_EQ(ok.value().results.size(), 1u);
  EXPECT_EQ(ok.value().results[0].live, 9);
  EXPECT_EQ(ok.value().results[0].survivors, (std::vector<int>{3, 17}));
  EXPECT_EQ(ok.value().results[0].histograms,
            (std::vector<DistanceHistogram>{{{0.5, 2}, {1.0, 1}}}));
  std::vector<std::string> bad = {
      FilterReply("2", "5", "[3.9]", "[]"),
      FilterReply("2", "5", "[-3]", "[]"),
      FilterReply("2", "5", "[1e12]", "[]"),
      FilterReply("2", "1e12", "[3]", "[]"),
      FilterReply("2", "-1", "[3]", "[]"),
      FilterReply("2", "5", "[3]", "[[0.5,1.5]]"),
      FilterReply("2", "5", "[3]", "[[0.5,-1]]"),
      FilterReply("2", "5", "[3]", "[[0.5,1e12]]"),
      FilterReply("2", "5", "[3]", "[]", "2.5"),
      FilterReply("2", "5", "[3]", "[]", "-1"),
  };
  for (const char* n : kBadNumbers) {
    bad.push_back(FilterReply(n, "5", "[3]", "[]"));
  }
  ExpectRejected(ShardFilterReplyFromJson, bad);
}

TEST(ShardCodecTest, FilterReplyRejectsBadHistograms) {
  ExpectRejected(ShardFilterReplyFromJson,
                 {
                     FilterReply("2", "5", "[3]", "[[-0.5,1]]"),  // negative
                     FilterReply("2", "5", "[3]", "[[0.5,0]]"),   // zero count
                     FilterReply("2", "5", "[3]", "[[1,1],[0.5,1]]"),  // order
                     FilterReply("2", "5", "[3]", "[[1,1],[1,2]]"),  // repeat
                     FilterReply("2", "5", "[3]", "[[1]]"),
                     FilterReply("2", "5", "[3]", "[[\"1\",1]]"),
                     FilterReply("2", "5", "[3]", "[[1,10]]"),  // > live
                 });
  // JSON text cannot carry a non-finite number, so encode one directly.
  for (double d : {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    ShardFilterReply reply;
    reply.fragments.resize(1);
    reply.shards = {0};
    reply.results.resize(1);
    reply.results[0].live = 4;
    reply.results[0].histograms = {{{d, 1}}};
    JsonValue json = JsonValue::Object();
    ShardFilterReplyToJson(reply, &json);
    EXPECT_EQ(ShardFilterReplyFromJson(json).status().code(),
              StatusCode::kInvalidArgument)
        << d;
  }
}

TEST(ShardCodecTest, FilterReplyRejectsUnsortedOrDuplicateSurvivors) {
  ExpectRejected(ShardFilterReplyFromJson,
                 {FilterReply("2", "5", "[17,3]", "[]"),
                  FilterReply("2", "5", "[3,3]", "[]"),
                  FilterReply("2", "5", "[1,2,3,4,5,6,7,8,9,10]", "[]")});
}

TEST(ShardCodecTest, FilterReplyNeedsOneHistogramPerFragment) {
  const std::string two_histograms =
      R"({"epoch":1,"fragments":[{"class_id":5,"vertices":[0,1]}],)"
      R"("shards":[{"shard":0,"live":3,"survivors":[],)"
      R"("histograms":[[],[]]}]})";
  const std::string no_histograms =
      R"({"epoch":1,"fragments":[{"class_id":5,"vertices":[0,1]}],)"
      R"("shards":[{"shard":0,"live":3,"survivors":[],"histograms":[]}]})";
  const std::string unsorted_shards =
      R"({"epoch":1,"fragments":[],"shards":[)"
      R"({"shard":2,"live":3,"survivors":[],"histograms":[]},)"
      R"({"shard":1,"live":3,"survivors":[],"histograms":[]}]})";
  ExpectRejected(ShardFilterReplyFromJson,
                 {two_histograms, no_histograms, unsorted_shards, "{}",
                  R"({"epoch":1,"fragments":[]})"});
}

TEST(ShardCodecTest, FilterReplyRoundTrips) {
  ShardFilterReply reply;
  reply.epoch = 7;
  reply.fragments.resize(2);
  reply.fragments[0].prepared.class_id = 4;
  reply.fragments[0].vertices = {0, 2, 5};
  reply.fragments[1].prepared.class_id = 9;
  reply.fragments[1].vertices = {1, 2};
  reply.shards = {0, 3};
  reply.results.resize(2);
  reply.results[0] = {5, {1, 8}, {{{0.1, 2}, {2.0 / 3.0, 1}}, {}}};
  reply.results[1] = {2, {}, {{{1e-300, 1}}, {{0.25, 2}}}};
  JsonValue json = JsonValue::Object();
  ShardFilterReplyToJson(reply, &json);
  auto decoded = ShardFilterReplyFromJson(Parse(json.Serialize()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().epoch, 7u);
  EXPECT_TRUE(CheckSameCatalog(reply.fragments, decoded.value().fragments,
                               "decoded")
                  .ok());
  EXPECT_EQ(decoded.value().shards, reply.shards);
  for (size_t i = 0; i < reply.results.size(); ++i) {
    EXPECT_EQ(decoded.value().results[i].live, reply.results[i].live);
    EXPECT_EQ(decoded.value().results[i].survivors,
              reply.results[i].survivors);
    EXPECT_EQ(decoded.value().results[i].histograms,
              reply.results[i].histograms);
  }
}

TEST(ShardCodecTest, CatalogCheckRejectsDivergence) {
  std::vector<QueryFragment> want(2);
  want[0].prepared.class_id = 4;
  want[0].vertices = {0, 1};
  want[1].prepared.class_id = 6;
  want[1].vertices = {1, 2};
  EXPECT_TRUE(CheckSameCatalog(want, want, "same").ok());
  std::vector<QueryFragment> other_class = want;
  other_class[1].prepared.class_id = 7;
  std::vector<QueryFragment> other_vertices = want;
  other_vertices[0].vertices = {0, 2};
  std::vector<QueryFragment> shorter(want.begin(), want.begin() + 1);
  for (const auto& got : {other_class, other_vertices, shorter}) {
    EXPECT_EQ(CheckSameCatalog(want, got, "replica").code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ShardCodecTest, RefineReplyAnswersMustBeGraphIds) {
  auto reply = [](const std::string& candidates, const std::string& answers) {
    return R"({"epoch":3,"partition_candidates":9,"candidates":)" +
           candidates + R"(,"answers":)" + answers + "}";
  };
  auto ok = ShardRefineReplyFromJson(Parse(reply("[0,3,8,9]", "[0,3,8]")));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().candidates, (std::vector<int>{0, 3, 8, 9}));
  EXPECT_EQ(ok.value().answers, (std::vector<int>{0, 3, 8}));
  std::vector<std::string> bad = {
      "{}", R"({"epoch":3,"candidates":[],"answers":7})",
      reply("[3,0]", "[]"),     // unsorted
      reply("[0,0]", "[]"),     // duplicate
      reply("[0,3]", "[4]"),    // an answer that was no candidate
      reply("[0,3]", "[3,0]"),  // unsorted answers
  };
  for (const char* n : kBadNumbers) {
    std::string list;  // "[n]", without a -Wrestrict-prone operator+ chain
    list.reserve(std::char_traits<char>::length(n) + 2);
    list.append("[").append(n).append("]");
    bad.push_back(reply(list, "[]"));
    bad.push_back(reply("[0]", list));
  }
  ExpectRejected(ShardRefineReplyFromJson, bad);
}

// partition_candidates counts the survivors the partition bound kept
// before certification: an exact integer, never below the candidates the
// certificate then left (the router checks it against its survivors).
TEST(ShardCodecTest, RefineReplyPartitionCandidatesRoundTripAndBounds) {
  ShardRefineReply sent;
  sent.epoch = 4;
  sent.candidates = {2, 5, 7};
  sent.partition_candidates = 5;
  sent.answers = {5};
  JsonValue encoded = JsonValue::Object();
  encoded.Set("ok", true);
  ShardRefineReplyToJson(sent, &encoded);
  auto decoded = ShardRefineReplyFromJson(Parse(encoded.Serialize()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().partition_candidates, 5);
  EXPECT_EQ(decoded.value().candidates, sent.candidates);
  EXPECT_EQ(decoded.value().answers, sent.answers);

  auto reply = [](const std::string& partition_candidates) {
    return R"({"epoch":3,"candidates":[0,3],"answers":[3],)"
           R"("partition_candidates":)" +
           partition_candidates + "}";
  };
  auto equal = ShardRefineReplyFromJson(Parse(reply("2")));
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  EXPECT_EQ(equal.value().partition_candidates, 2);
  std::vector<std::string> bad = {
      R"({"epoch":3,"candidates":[0,3],"answers":[3]})",  // missing
      reply("1"),                                         // below candidates
      reply("0"),
      reply("null"),
  };
  for (const char* n : kBadNumbers) bad.push_back(reply(n));
  ExpectRejected(ShardRefineReplyFromJson, bad);
}

TEST(ShardCodecTest, RequestsRoundTripAndRejectBadFields) {
  auto graph = ParseGraph("t # 0\nv 0 1\nv 1 1\ne 0 1 1");
  ASSERT_TRUE(graph.ok());
  ShardRefineRequest refine{graph.value(), 2, {4, 1}, {9, 3}, {5, 7}, 1.5,
                            true};
  auto decoded = ShardRefineRequestFromJson(
      Parse(ShardRefineRequestToJson(refine).Serialize()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().shard, 2);
  EXPECT_EQ(decoded.value().partition, refine.partition);
  EXPECT_EQ(decoded.value().classes, refine.classes);
  EXPECT_EQ(decoded.value().survivors, refine.survivors);
  EXPECT_EQ(decoded.value().sigma, 1.5);
  EXPECT_TRUE(decoded.value().trace);

  const std::string g = R"("graph":"t # 0\nv 0 1\nv 1 1\ne 0 1 1")";
  ExpectRejected(ShardFilterRequestFromJson,
                 {"{" + g + R"(,"sigma":1})",
                  "{" + g + R"(,"shards":[],"sigma":1})",
                  "{" + g + R"(,"shards":[1,0],"sigma":1})",
                  "{" + g + R"(,"shards":[0.5],"sigma":1})",
                  "{" + g + R"(,"shards":[0]})",
                  "{" + g + R"(,"shards":[0],"sigma":-1})",
                  R"({"shards":[0],"sigma":1})"});
  ExpectRejected(ShardRefineRequestFromJson,
                 {"{" + g +
                      R"(,"shard":0,"partition":[],"classes":[],)"
                      R"("survivors":[3,1],"sigma":1})",
                  "{" + g +
                      R"(,"shard":-1,"partition":[],"classes":[],)"
                      R"("survivors":[],"sigma":1})",
                  "{" + g +
                      R"(,"shard":0,"partition":[0.5],"classes":[1],)"
                      R"("survivors":[],"sigma":1})",
                  "{" + g + R"(,"shard":0,"survivors":[],"sigma":1})"});
}

}  // namespace
}  // namespace pis
