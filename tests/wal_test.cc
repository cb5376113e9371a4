// WriteAheadLog file mechanics: append/reopen round trips, torn tails
// (crash mid-append) silently truncated, corrupt records, shard-less adds
// and any version but 2 rejected as InvalidArgument (never a crash, never
// a silent skip), and checkpoint truncation keeping exactly the records a
// snapshot does not cover. Replay
// semantics over a real index live in durability_test.cc — this suite needs
// no engine build and stays in the `unit` fast lane.
#include "server/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "util/serde.h"
#include "util/status.h"

namespace pis {
namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / ("pis_wal_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string LogPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "wal.log").string();
}

// An add placed in shard 0: every logged add carries a shard stamp.
WalRecord Add(uint64_t epoch, int gid, const std::string& text) {
  WalRecord rec;
  rec.op = WalRecord::Op::kAdd;
  rec.epoch = epoch;
  rec.gid = gid;
  rec.shard = 0;
  rec.graph_text = text;
  return rec;
}

WalRecord Remove(uint64_t epoch, int gid) {
  WalRecord rec;
  rec.op = WalRecord::Op::kRemove;
  rec.epoch = epoch;
  rec.gid = gid;
  return rec;
}

void AppendRawBytes(const std::string& dir, const std::string& bytes) {
  std::ofstream out(LogPath(dir), std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t Fnv1a64(const std::string& data) {
  uint64_t h = 1469598103934665603ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One framed record: op, epoch, gid, then (v2 only, when `shard` is set)
/// the shard stamp, then the graph text. Without a shard this is the
/// pre-cluster v1 payload layout.
std::string Frame(uint8_t op, uint64_t epoch, int32_t gid,
                  std::optional<int32_t> shard, const std::string& text) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  PutU64(&payload, epoch);
  PutU32(&payload, static_cast<uint32_t>(gid));
  if (shard) PutU32(&payload, static_cast<uint32_t>(*shard));
  PutU64(&payload, text.size());
  payload += text;
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Fnv1a64(payload));
  return frame + payload;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes a complete version-1 log file (magic + version 1 + records).
void WriteV1Log(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::string file;
  PutU32(&file, 0x4C415750);  // 'PWAL'
  PutU32(&file, 1);
  file += Frame(1, 1, 0, std::nullopt, "t # 0\nv 0 6\n");
  file += Frame(1, 2, 1, std::nullopt, "t # 1\nv 0 8\n");
  file += Frame(2, 3, 0, std::nullopt, "");
  std::ofstream out(LogPath(dir), std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  ASSERT_TRUE(out.good());
}

TEST(WalTest, OpenCreatesAnEmptyLog) {
  const std::string dir = FreshDir("create");
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(wal.value().recovered().empty());
  EXPECT_EQ(wal.value().records(), 0u);
  EXPECT_EQ(wal.value().max_recovered_epoch(), 0u);
  // Header only: magic + version.
  EXPECT_EQ(wal.value().bytes(), 8u);
  EXPECT_TRUE(std::filesystem::exists(LogPath(dir)));
}

TEST(WalTest, AppendReopenRoundTrips) {
  const std::string dir = FreshDir("roundtrip");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    std::vector<WalRecord> batch = {Add(1, 0, "t # 0\nv 0 6\n"),
                                    Add(1, 1, "t # 1\nv 0 8\n")};
    ASSERT_TRUE(wal.value().Append(batch).ok());
    std::vector<WalRecord> second = {Remove(2, 0)};
    ASSERT_TRUE(wal.value().Append(second).ok());
    EXPECT_EQ(wal.value().records(), 3u);
  }
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<WalRecord>& got = reopened.value().recovered();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].op, WalRecord::Op::kAdd);
  EXPECT_EQ(got[0].epoch, 1u);
  EXPECT_EQ(got[0].gid, 0);
  EXPECT_EQ(got[0].graph_text, "t # 0\nv 0 6\n");
  EXPECT_EQ(got[1].gid, 1);
  EXPECT_EQ(got[2].op, WalRecord::Op::kRemove);
  EXPECT_EQ(got[2].epoch, 2u);
  EXPECT_TRUE(got[2].graph_text.empty());
  EXPECT_EQ(reopened.value().max_recovered_epoch(), 2u);
  EXPECT_EQ(reopened.value().records(), 3u);
}

TEST(WalTest, EmptyAppendIsANoOp) {
  const std::string dir = FreshDir("empty_batch");
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append({}).ok());
  EXPECT_EQ(wal.value().records(), 0u);
  EXPECT_EQ(wal.value().bytes(), 8u);
}

TEST(WalTest, TornFrameHeaderIsTruncatedAway) {
  const std::string dir = FreshDir("torn_frame");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    std::vector<WalRecord> batch = {Add(1, 0, "t # 0\nv 0 6\n"),
                                    Remove(2, 0)};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  const auto intact_bytes = std::filesystem::file_size(LogPath(dir));
  // Crash mid-append: only 10 of the 12 frame-header bytes landed.
  AppendRawBytes(dir, std::string("\x40\x00\x00\x00junk!!", 10));
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().recovered().size(), 2u);
  // The tail was physically removed, not just skipped.
  EXPECT_EQ(std::filesystem::file_size(LogPath(dir)), intact_bytes);
  EXPECT_EQ(reopened.value().bytes(), intact_bytes);
}

TEST(WalTest, TornPayloadIsTruncatedAway) {
  const std::string dir = FreshDir("torn_payload");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    std::vector<WalRecord> batch = {Add(5, 3, "t # 3\nv 0 1\n")};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  // A full frame header declaring 64 payload bytes, then only 5 of them.
  std::string torn("\x40\x00\x00\x00", 4);
  torn += std::string(8, '\xab');  // checksum placeholder
  torn += "parti";
  AppendRawBytes(dir, torn);
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value().recovered().size(), 1u);
  EXPECT_EQ(reopened.value().recovered()[0].gid, 3);
  EXPECT_EQ(reopened.value().max_recovered_epoch(), 5u);
  // A later Append lands after the repaired tail and reopens cleanly.
  std::vector<WalRecord> more = {Remove(6, 3)};
  ASSERT_TRUE(reopened.value().Append(more).ok());
  auto again = WriteAheadLog::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().recovered().size(), 2u);
}

TEST(WalTest, CorruptPayloadIsInvalidArgumentNotACrash) {
  const std::string dir = FreshDir("corrupt");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    std::vector<WalRecord> batch = {Add(1, 0, "t # 0\nv 0 6\n")};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  // Flip one payload byte (well past the 8B header + 12B frame): the full
  // record is present, so this is corruption, not a torn tail.
  {
    std::fstream f(LogPath(dir),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('X');
    ASSERT_TRUE(f.good());
  }
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ImplausibleRecordSizeIsInvalidArgument) {
  const std::string dir = FreshDir("huge_size");
  { ASSERT_TRUE(WriteAheadLog::Open(dir).ok()); }
  // A complete 12-byte frame header declaring a 4GB payload.
  AppendRawBytes(dir, std::string("\xff\xff\xff\xff", 4) +
                          std::string(8, '\x00'));
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, WrongMagicIsInvalidArgument) {
  const std::string dir = FreshDir("magic");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(LogPath(dir), std::ios::binary);
    out << "NOTAWALFILE";
  }
  auto opened = WriteAheadLog::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, TruncateThroughKeepsOnlyUncoveredRecords) {
  const std::string dir = FreshDir("truncate");
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  std::vector<WalRecord> batch = {Add(1, 0, "a"), Add(2, 1, "b"),
                                  Remove(3, 0)};
  ASSERT_TRUE(wal.value().Append(batch).ok());
  ASSERT_TRUE(wal.value().TruncateThrough(2).ok());
  EXPECT_EQ(wal.value().records(), 1u);
  // Appending through the reopened descriptor still works after the swap.
  std::vector<WalRecord> more = {Add(4, 2, "c")};
  ASSERT_TRUE(wal.value().Append(more).ok());
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value().recovered().size(), 2u);
  EXPECT_EQ(reopened.value().recovered()[0].epoch, 3u);
  EXPECT_EQ(reopened.value().recovered()[0].op, WalRecord::Op::kRemove);
  EXPECT_EQ(reopened.value().recovered()[1].epoch, 4u);
  EXPECT_EQ(reopened.value().recovered()[1].gid, 2);
}

// A pre-cluster (version 1) log carries no shard field. Open refuses it
// with InvalidArgument naming the version and the last commit that reads
// it, and leaves the file byte-identical on disk.
TEST(WalTest, V1LogIsRefusedAndLeftByteIdentical) {
  const std::string dir = FreshDir("v1_refused");
  WriteV1Log(dir);
  const std::string before = ReadFile(LogPath(dir));
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = wal.status().message();
  EXPECT_NE(msg.find("WAL version 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reads only version 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find(kLastRetiredFormatReader), std::string::npos) << msg;
  EXPECT_EQ(ReadFile(LogPath(dir)), before);
}

// Every header version word but 2 — 0, the one older builds wrote, and the
// next one — is refused over an otherwise valid log, which stays as it was.
TEST(WalTest, EveryOtherWalVersionIsRefused) {
  for (uint32_t version : {0u, 1u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string dir = FreshDir("version_" + std::to_string(version));
    {
      auto wal = WriteAheadLog::Open(dir);
      ASSERT_TRUE(wal.ok());
      std::vector<WalRecord> batch = {Add(1, 0, "t # 0\nv 0 6\n")};
      ASSERT_TRUE(wal.value().Append(batch).ok());
    }
    {
      std::fstream f(LogPath(dir),
                     std::ios::binary | std::ios::in | std::ios::out);
      std::string word;
      PutU32(&word, version);
      f.seekp(4);
      f.write(word.data(), 4);
      ASSERT_TRUE(f.good());
    }
    const std::string before = ReadFile(LogPath(dir));
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_FALSE(wal.ok());
    EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
    const std::string& msg = wal.status().message();
    EXPECT_NE(msg.find("WAL version " + std::to_string(version)),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find(kLastRetiredFormatReader) != std::string::npos,
              version == 1)
        << msg;
    EXPECT_EQ(ReadFile(LogPath(dir)), before);
  }
}

// An add without a shard stamp cannot be replayed to its shard: Append
// refuses it before writing a byte, and a log that holds one (written by
// hand here) fails Open as corruption.
TEST(WalTest, AddWithoutAShardStampIsInvalidArgument) {
  const std::string dir = FreshDir("shardless_add");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    WalRecord shardless = Add(1, 0, "t # 0\nv 0 6\n");
    shardless.shard = -1;
    std::vector<WalRecord> batch = {Remove(1, 3), shardless};
    Status appended = wal.value().Append(batch);
    EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument)
        << appended.ToString();
    EXPECT_EQ(wal.value().records(), 0u);
    EXPECT_EQ(std::filesystem::file_size(LogPath(dir)), 8u);
  }
  AppendRawBytes(dir, Frame(1, 1, 0, -1, "t # 0\nv 0 6\n"));
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("shard stamp"),
            std::string::npos)
      << reopened.status().ToString();
}

// The shard stamp (which shard an add landed in) must survive the disk
// round trip exactly — replica recovery replays through it.
TEST(WalTest, ShardStampRoundTrips) {
  const std::string dir = FreshDir("shard_stamp");
  {
    auto wal = WriteAheadLog::Open(dir);
    ASSERT_TRUE(wal.ok());
    WalRecord a = Add(1, 5, "t # 5\nv 0 6\n");
    a.shard = 2;
    WalRecord b = Add(1, 9, "t # 9\nv 0 8\n");
    b.shard = 0;
    std::vector<WalRecord> batch = {a, b, Remove(2, 5)};
    ASSERT_TRUE(wal.value().Append(batch).ok());
  }
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<WalRecord>& got = reopened.value().recovered();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].gid, 5);
  EXPECT_EQ(got[0].shard, 2);
  EXPECT_EQ(got[1].gid, 9);
  EXPECT_EQ(got[1].shard, 0);
  EXPECT_EQ(got[2].op, WalRecord::Op::kRemove);
  EXPECT_EQ(got[2].shard, -1);  // removes route through the live table
}

TEST(WalTest, TruncateThroughEverythingLeavesAnEmptyLog) {
  const std::string dir = FreshDir("truncate_all");
  auto wal = WriteAheadLog::Open(dir);
  ASSERT_TRUE(wal.ok());
  std::vector<WalRecord> batch = {Add(1, 0, "a"), Remove(2, 0)};
  ASSERT_TRUE(wal.value().Append(batch).ok());
  ASSERT_TRUE(wal.value().TruncateThrough(99).ok());
  EXPECT_EQ(wal.value().records(), 0u);
  EXPECT_EQ(wal.value().bytes(), 8u);
  auto reopened = WriteAheadLog::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().recovered().empty());
}

}  // namespace
}  // namespace pis
