// Strict decoding of replica replies: the router trusts every id, count,
// and epoch a replica sends, so a fractional, negative, or out-of-range
// JSON number must come back as InvalidArgument from the shard_ops codecs
// — never be truncated or cast (a cast of 1e12 to int, or of -1 to
// uint64_t, is undefined behaviour).
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(ShardCodecTest, QueryResultRejectsInexactNumbers) {
  auto reply = [](const std::string& epoch, const std::string& class_id,
                  const std::string& gid) {
    return R"({"epoch":)" + epoch + R"(,"fragments":[{"class_id":)" +
           class_id + R"(,"vertices":[0,1]}],"dists":[[[)" + gid +
           ",0.5]]]}";
  };
  auto ok = ShardQueryResultFromJson(Parse(reply("2", "5", "17")));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().epoch, 2u);
  ASSERT_EQ(ok.value().dists.size(), 1u);
  EXPECT_EQ(ok.value().dists[0].at(17), 0.5);
  std::vector<std::string> bad = {reply("2", "5", "3.9"),
                                  reply("2", "1e12", "17")};
  for (const char* n : kBadNumbers) bad.push_back(reply(n, "5", "17"));
  ExpectRejected(ShardQueryResultFromJson, bad);
}

TEST(ShardCodecTest, VerifyAnswersMustBeGraphIds) {
  auto ok = ShardVerifyAnswersFromJson(Parse(R"({"answers":[0,3,8]})"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value(), (std::vector<int>{0, 3, 8}));
  std::vector<std::string> bad = {"{}", R"({"answers":7})"};
  for (const char* n : kBadNumbers) {
    bad.push_back(R"({"answers":[)" + std::string(n) + "]}");
  }
  ExpectRejected(ShardVerifyAnswersFromJson, bad);
}

}  // namespace
}  // namespace pis
