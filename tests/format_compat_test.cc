// Serde format versioning. Each loader reads the version this build
// writes: fragment index v6 (header, classes, then the tombstone list, the
// compaction epoch and the live count; v5 files, which add a retired
// counter and signature section, still load), shard manifest v4
// (epoch, -1-aware routing, explicit local ids, per-shard live counts and
// the auto-compaction policy) and, in wal_test.cc, WAL v2. Every other
// version is refused with a ParseError that names the version it found,
// the version this build reads and, for an older one, the last commit
// that reads it — never garbage or a crash. So are the layouts no build
// writes any more: a set backend-override flag, a VP-tree class (tag 2)
// and a single-file index passed to LoadDir. A manifest that disagrees
// with the files on disk (or is truncated mid-section) is
// InvalidArgument. A single index file, loaded as one shard through
// FromFragmentIndex, filters exactly as the single-index engine did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "index/fragment_index.h"
#include "index/sharded_index.h"
#include "util/serde.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;
using ::pis::testing::ExpectSameAnswers;
using ::pis::testing::SampleQueries;

constexpr uint32_t kManifestMagic = 0x5049534D;  // mirrors sharded_index.cc

void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, bytes->size());
  std::memcpy(bytes->data() + offset, &value, 4);
}

void WriteBytes(const BinaryWriter& writer, std::ostream* out) {
  out->write(writer.buffer().data(),
             static_cast<std::streamsize>(writer.buffer().size()));
}

std::string SaveBytes(const FragmentIndex& index) {
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  return out.str();
}

// Expects a refusal of `format` version `found` when this build reads
// versions `oldest` to `current`: the message names the version found and
// those read, and a version older than `oldest` also names the last commit
// that reads it.
void ExpectVersionRefused(const Status& status, StatusCode code,
                          const std::string& format, uint32_t found,
                          uint32_t oldest, uint32_t current) {
  EXPECT_EQ(status.code(), code) << status.ToString();
  const std::string& msg = status.message();
  EXPECT_NE(msg.find(format + " version " + std::to_string(found)),
            std::string::npos)
      << msg;
  const std::string reads =
      oldest == current ? "reads only version " + std::to_string(current)
                        : "reads versions " + std::to_string(oldest) +
                              " to " + std::to_string(current);
  EXPECT_NE(msg.find(reads), std::string::npos) << msg;
  EXPECT_EQ(msg.find(kLastRetiredFormatReader) != std::string::npos,
            found >= 1 && found < oldest)
      << msg;
}

// A file with tombstones loads with its dead set intact — and then compacts
// exactly like the in-memory index: ids re-densified, postings dropped, and
// answers identical to a from-scratch build over the survivors.
TEST(FormatCompatTest, FragmentIndexWithTombstonesLoadsAndCompacts) {
  EngineFixture fx(12, 21);
  ASSERT_TRUE(fx.index.ok());
  const std::vector<int> dead = {1, 4, 9};
  for (int gid : dead) ASSERT_TRUE(fx.index.value().RemoveGraph(gid).ok());
  std::stringstream in(SaveBytes(fx.index.value().shard(0)));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 0u);
  EXPECT_EQ(loaded.value().tombstones().size(), dead.size());
  EXPECT_EQ(loaded.value().num_live(), 9);

  const std::vector<int> remap = loaded.value().Compact();
  EXPECT_EQ(loaded.value().db_size(), 9);
  EXPECT_EQ(loaded.value().compaction_epoch(), 1u);
  EXPECT_TRUE(loaded.value().tombstones().empty());

  GraphDatabase live_db;
  for (int gid = 0; gid < fx.db.size(); ++gid) {
    if (remap[gid] < 0) continue;
    ASSERT_EQ(remap[gid], live_db.size());
    live_db.Add(fx.db.at(gid));
  }
  auto rebuilt = ShardedFragmentIndex::Build(live_db, fx.features,
                                             fx.index.value().options(), 1);
  ASSERT_TRUE(rebuilt.ok());
  ExpectSameAnswers(live_db, rebuilt.value(),
                    ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue()),
                    SampleQueries(fx.db, 3, 6, 23));
}

// Tombstones AND the compaction trailer (the sections v3 added; v6 keeps
// that layout) survive Save/Load.
TEST(FormatCompatTest, FragmentIndexV3RoundTripsEpochAndTombstones) {
  EngineFixture fx(10, 31);
  ASSERT_TRUE(fx.index.ok());
  auto index = fx.index.value().shard(0).Clone();
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value().RemoveGraph(2).ok());
  index.value().Compact();  // epoch 1, no tombstones
  ASSERT_TRUE(index.value().RemoveGraph(5).ok());

  std::stringstream buffer;
  ASSERT_TRUE(index.value().Save(buffer).ok());
  auto loaded = FragmentIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 1u);
  EXPECT_EQ(loaded.value().db_size(), 9);
  EXPECT_EQ(loaded.value().num_live(), 8);
  EXPECT_EQ(loaded.value().tombstones().count(5), 1u);
}

// A trailer (the one v3 introduced) whose live count disagrees with the
// tombstone section is corruption, not a silently wrong selectivity
// denominator.
TEST(FormatCompatTest, FragmentIndexV3BadLiveCountRejected) {
  EngineFixture fx(8, 41);
  ASSERT_TRUE(fx.index.ok());
  std::string bytes = SaveBytes(fx.index.value().shard(0));
  PatchU32(&bytes, bytes.size() - 4, 3);  // claim 3 live of 8, all live
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("live count"), std::string::npos);
}

// v6 round trip: Save -> Load -> Save must be byte-identical.
TEST(FormatCompatTest, FragmentIndexV6SaveLoadSaveIsByteIdentical) {
  EngineFixture fx(10, 59);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(3).ok());
  const std::string first = SaveBytes(fx.index.value().shard(0));
  std::stringstream in(first);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveBytes(loaded.value()), first);
}

// Offset of the end of a saved index's header counters: after the magic,
// the version, the two fragment-size bounds, the distance spec, the
// retired override flag, db_size and the three build counters.
size_t HeaderCountersEnd(const FragmentIndex& index) {
  BinaryWriter spec;
  spec.U8(static_cast<uint8_t>(index.options().spec.type));
  index.options().spec.vertex_scores.Serialize(&spec);
  index.options().spec.edge_scores.Serialize(&spec);
  spec.U8(0);  // use_vertex_weights
  spec.U8(0);  // use_edge_weights
  return 16 + spec.buffer().size() + 1 + 4 + 3 * 8;
}

// A v5 file is the v6 layout with a fourth counter (subsets the retired
// signature prefilter skipped) and the sorted signature section after the
// header counters. It loads with both discarded: the same index, so it
// resaves as the v6 bytes and answers like the v6 file.
TEST(FormatCompatTest, FragmentIndexV5FileLoadsAndAnswersLikeV6) {
  for (const DistanceSpec& spec :
       {DistanceSpec::EdgeMutation(), DistanceSpec::EdgeLinear()}) {
    EngineFixture fx(12, 61, 4, spec);
    ASSERT_TRUE(fx.index.ok());
    ASSERT_TRUE(fx.index.value().RemoveGraph(2).ok());
    const FragmentIndex& index = fx.index.value().shard(0);
    const std::string v6 = SaveBytes(index);
    BinaryWriter retired;
    retired.U64(1234);  // subsets skipped by signature
    retired.U64(3);     // signature count
    for (uint64_t sig : {0x11ULL, 0x2222ULL, 0x333333ULL}) retired.U64(sig);
    std::string v5 = v6;
    v5.insert(HeaderCountersEnd(index), retired.buffer());
    PatchU32(&v5, 4, 5);
    ASSERT_EQ(v5.size(), v6.size() + 8 + 8 + 3 * 8);

    std::stringstream in(v5);
    auto loaded = FragmentIndex::Load(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(SaveBytes(loaded.value()) == v6);
    EXPECT_EQ(loaded.value().tombstones().size(), 1u);
    auto v6_clone = index.Clone();
    ASSERT_TRUE(v6_clone.ok());
    ExpectSameAnswers(fx.db,
                      ShardedFragmentIndex::FromFragmentIndex(v6_clone.MoveValue()),
                      ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue()),
                      SampleQueries(fx.db, 3, 6, 67));

    // A v5 file cut inside its signature section is corrupt.
    std::string cut = v5.substr(0, HeaderCountersEnd(index) + 8 + 8 + 8);
    std::stringstream cut_in(cut);
    auto truncated = FragmentIndex::Load(cut_in);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kParseError);
  }
}

TEST(FormatCompatTest, FragmentIndexFutureVersionRejected) {
  EngineFixture fx(6, 3);
  ASSERT_TRUE(fx.index.ok());
  std::string bytes = SaveBytes(fx.index.value().shard(0));
  PatchU32(&bytes, 4, 7);
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

// Every version word but 5 and 6 — 0, each version older builds wrote
// that this one does not read, and the next one — is refused before
// anything after it is read.
TEST(FormatCompatTest, EveryOtherIndexVersionIsRefused) {
  EngineFixture fx(6, 3);
  ASSERT_TRUE(fx.index.ok());
  const std::string saved = SaveBytes(fx.index.value().shard(0));
  for (uint32_t version : {0u, 1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = saved;
    PatchU32(&bytes, 4, version);
    std::stringstream in(bytes);
    auto loaded = FragmentIndex::Load(in);
    ASSERT_FALSE(loaded.ok());
    ExpectVersionRefused(loaded.status(), StatusCode::kParseError, "index",
                         version, 5, 6);
  }
}

// An index as a build with the VP-tree backend selected wrote it: the
// header's override flag set and followed by that backend's tag (2). The
// flag sits after the magic, the version, the two fragment-size bounds and
// the serialized distance spec.
TEST(FormatCompatTest, SetBackendOverrideFlagIsRefused) {
  EngineFixture fx(8, 71);
  ASSERT_TRUE(fx.index.ok());
  const FragmentIndex& index = fx.index.value().shard(0);
  BinaryWriter writer;
  writer.U8(0);  // distance type
  index.options().spec.vertex_scores.Serialize(&writer);
  index.options().spec.edge_scores.Serialize(&writer);
  writer.U8(0);  // use_vertex_weights
  writer.U8(0);  // use_edge_weights
  const size_t flag_at = 16 + writer.buffer().size();
  std::string bytes = SaveBytes(index);
  ASSERT_EQ(bytes[flag_at], '\0');
  bytes[flag_at] = 1;
  bytes.insert(flag_at + 1, 1, '\2');
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("override"), std::string::npos);
  EXPECT_NE(loaded.status().message().find(kLastRetiredFormatReader),
            std::string::npos)
      << loaded.status().ToString();
}

// ---- Class backend tags ----------------------------------------------

constexpr uint8_t kTrieTag = 0;  // class backend tags, as class_index.cc
constexpr uint8_t kRTreeTag = 1;
constexpr uint8_t kVpTreeTag = 2;  // the retired VP-tree backend

// A v6 Save() cut into its header, its classes' bytes and its trailer (the
// tombstone list, the compaction epoch and the live count). Each class is
// re-serialized on its own to find its extent; the pieces must reassemble
// the file exactly.
struct SavedParts {
  std::string header;
  std::vector<std::string> classes;
  std::string tail;

  std::string Join() const {
    std::string bytes = header;
    for (const std::string& cls : classes) bytes += cls;
    return bytes + tail;
  }
};

SavedParts SplitSave(const FragmentIndex& index) {
  const std::string bytes = SaveBytes(index);
  SavedParts parts;
  std::string joined;
  for (int c = 0; c < index.num_classes(); ++c) {
    BinaryWriter writer;
    EXPECT_TRUE(index.class_at(c).Serialize(&writer).ok());
    parts.classes.push_back(writer.buffer());
    joined += parts.classes.back();
  }
  const size_t tail_size = 8 + 4 * index.tombstones().size() + 8;
  const size_t header_size = bytes.size() - joined.size() - tail_size;
  parts.header = bytes.substr(0, header_size);
  parts.tail = bytes.substr(header_size + joined.size());
  EXPECT_EQ(bytes.substr(header_size, joined.size()), joined);
  return parts;
}

// Offset of a serialized class's backend tag: after the key (length-prefixed
// string) and the vertex and edge counts.
size_t TagOffset(const std::string& class_bytes) {
  uint64_t key_size = 0;
  std::memcpy(&key_size, class_bytes.data(), 8);
  return 8 + key_size + 4 + 4;
}

// The first class of `index`'s saved bytes retagged as `tag`, loaded.
Result<FragmentIndex> LoadWithFirstClassTag(const FragmentIndex& index,
                                            uint8_t tag) {
  SavedParts parts = SplitSave(index);
  EXPECT_FALSE(parts.classes.empty());
  std::string& first = parts.classes.front();
  first[TagOffset(first)] = static_cast<char>(tag);
  std::stringstream in(parts.Join());
  return FragmentIndex::Load(in);
}

// Only the spec's own backend loads: a trie class in a linear-distance
// file, or an R-tree class in a mutation-distance file, is a ParseError.
TEST(FormatCompatTest, ClassTagForTheOtherDistanceIsParseError) {
  for (bool linear : {false, true}) {
    SCOPED_TRACE(linear ? "linear file, trie tag" : "mutation file, rtree tag");
    EngineFixture fx(8, 71, 4,
                     linear ? DistanceSpec::EdgeLinear()
                            : DistanceSpec::EdgeMutation());
    ASSERT_TRUE(fx.index.ok());
    auto loaded = LoadWithFirstClassTag(fx.index.value().shard(0),
                                        linear ? kTrieTag : kRTreeTag);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("backend tag"), std::string::npos);
  }
}

// A class of the retired VP-tree backend in a v6 file is refused under
// either distance type, and the message names the last commit that reads
// one.
TEST(FormatCompatTest, VpTreeClassIsRefused) {
  for (bool linear : {false, true}) {
    SCOPED_TRACE(linear ? "linear file" : "mutation file");
    EngineFixture fx(8, 71, 4,
                     linear ? DistanceSpec::EdgeLinear()
                            : DistanceSpec::EdgeMutation());
    ASSERT_TRUE(fx.index.ok());
    auto loaded = LoadWithFirstClassTag(fx.index.value().shard(0), kVpTreeTag);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("backend tag 2"),
              std::string::npos);
    EXPECT_NE(loaded.status().message().find(kLastRetiredFormatReader),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// A class whose vertex and edge counts overflow an int when summed into a
// sequence length is a bad header, never a wrapped length.
TEST(FormatCompatTest, OversizedClassHeaderIsParseError) {
  EngineFixture fx(8, 71, 4, DistanceSpec::FullMutation());
  ASSERT_TRUE(fx.index.ok());
  SavedParts parts = SplitSave(fx.index.value().shard(0));
  ASSERT_FALSE(parts.classes.empty());
  std::string& first = parts.classes.front();
  const int32_t huge = std::numeric_limits<int32_t>::max();
  std::memcpy(first.data() + TagOffset(first) - 8, &huge, 4);  // vertices
  std::stringstream in(parts.Join());
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("class index header"),
            std::string::npos);
}

// ---- Single index files ----------------------------------------------

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// EngineFixture(24, 77) with graph 5 removed, saved by
// FragmentIndex::SaveFile: the bytes of a one-shard directory's shard file,
// and the single file `pis_cli build` wrote before indexes became manifest
// directories. It loads through FromFragmentIndex(LoadFile(...)); LoadDir
// refuses it.
class LegacyIndexFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fx_.index.ok());
    ASSERT_TRUE(fx_.index.value().RemoveGraph(5).ok());
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("pis_legacy_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    ASSERT_TRUE(fx_.index.value().shard(0).SaveFile(legacy()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string legacy() const { return (root_ / "index.bin").string(); }
  Result<ShardedFragmentIndex> LoadAsOneShard() const {
    PIS_ASSIGN_OR_RETURN(FragmentIndex index, FragmentIndex::LoadFile(legacy()));
    return ShardedFragmentIndex::FromFragmentIndex(std::move(index));
  }

  EngineFixture fx_{24, 77};
  std::filesystem::path root_;
};

TEST_F(LegacyIndexFileTest, LoadsAsOneShardWithIdentityRouting) {
  auto loaded = LoadAsOneShard();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_shards(), 1);
  EXPECT_EQ(loaded.value().num_live(), 23);
  EXPECT_FALSE(loaded.value().IsLive(5));
  ASSERT_EQ(loaded.value().db_size(), 24);
  for (int gid = 0; gid < 24; ++gid) {
    EXPECT_EQ(loaded.value().shard_of(gid), 0);
    EXPECT_EQ(loaded.value().global_id(0, gid), gid);
  }
}

// The candidates, answers, and QueryStats counters below were recorded from
// the single-index engine (one FragmentIndex, no shards) over this fixture:
// the file must filter exactly as it did through Filter and Search
// alike. range_queries is one per fragment plus one per partition fragment.
// That engine's filter ended at the partition bound, so its lists and
// counts are the Yp reference (candidates_after_partition); the certified
// lists, pinned when pass 2 gained the graph-local certificate and
// re-recorded when it gained its neighbourhood domains, its spanning-tree
// cost bound and that bound's outside pass, lie inside them and leave
// every answer in place.
TEST_F(LegacyIndexFileTest, FiltersExactlyAsTheSingleIndexEngineDid) {
  const std::vector<int> all = {0,  1,  2,  3,  4,  6,  7,  8,  9,  10, 11, 12,
                                13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23};
  const std::vector<int> pruned = {0,  1,  3,  4,  6,  8, 12,
                                   14, 15, 17, 19, 20, 22};
  struct Expected {
    const std::vector<int>& partition_candidates;
    std::vector<int> certified;
    std::vector<int> answers;
    QueryStats stats;  // counters only
  };
  auto stats = [](size_t kept, size_t partition, double weight,
                  size_t partition_count, size_t final_count) {
    QueryStats s;
    s.fragments_enumerated = 9;
    s.range_queries = 9 + partition;
    s.fragments_kept = kept;
    s.partition_size = partition;
    s.partition_weight = weight;
    s.candidates_after_intersection = 23;
    s.candidates_after_partition = partition_count;
    s.candidates_final = final_count;
    return s;
  };
  const Expected expected[] = {
      {all,
       {3, 7, 13, 16, 18, 21, 22},
       {3, 16},
       stats(1, 1, 0.30434782608695654, 23, 7)},
      {pruned,
       {0, 1, 8, 15, 17, 19, 20, 22},
       {0, 1, 8, 15, 17, 19, 20, 22},
       stats(5, 3, 1.3043478260869565, 13, 8)},
      {pruned,
       {0, 8, 19, 20},
       {0, 8, 19, 20},
       stats(5, 3, 1.3043478260869565, 13, 4)},
      {all,
       {1, 3, 6, 7, 8, 9, 10, 11, 13, 15, 16, 18, 19, 22},
       {1, 3, 6, 7, 9, 10, 11, 13, 15, 16, 18, 19, 22},
       stats(0, 0, 0, 23, 14)},
  };
  auto loaded = LoadAsOneShard();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PisOptions options;
  options.sigma = 2.0;
  PisEngine engine(&fx_.db, &loaded.value(), options);
  const std::vector<Graph> queries = SampleQueries(fx_.db, 4, 9, 17);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    const Expected& e = expected[qi];
    EXPECT_EQ(e.partition_candidates.size(),
              e.stats.candidates_after_partition);
    EXPECT_EQ(e.certified.size(), e.stats.candidates_final);
    EXPECT_TRUE(std::includes(e.partition_candidates.begin(),
                              e.partition_candidates.end(),
                              e.certified.begin(), e.certified.end()));
    auto filtered = engine.Filter(queries[qi]);
    auto searched = engine.Search(queries[qi]);
    ASSERT_TRUE(filtered.ok() && searched.ok());
    QueryStats want = e.stats;
    EXPECT_EQ(filtered.value().candidates, e.certified);
    pis::testing::ExpectSameCounters(want, filtered.value().stats);
    EXPECT_EQ(searched.value().candidates, e.certified);
    EXPECT_EQ(searched.value().answers, e.answers);
    want.answers = e.answers.size();
    pis::testing::ExpectSameCounters(want, searched.value().stats);
  }
}

// SaveDir of the wrapped file writes a one-shard directory whose shard
// file is the single file byte for byte, and SaveDir -> LoadDir -> SaveDir
// is byte-stable. Saving over the file itself fails and leaves it as it
// was.
TEST_F(LegacyIndexFileTest, SaveDirRoundTripIsByteStable) {
  auto loaded = LoadAsOneShard();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::filesystem::path first = root_ / "first";
  const std::filesystem::path second = root_ / "second";
  ASSERT_TRUE(loaded.value().SaveDir(first.string()).ok());
  const std::string file_bytes = ReadBytes(legacy());
  EXPECT_EQ(ReadBytes(first / "shard_0000.idx"), file_bytes);
  auto reloaded = ShardedFragmentIndex::LoadDir(first.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded.value().SaveDir(second.string()).ok());
  for (const char* file : {"MANIFEST", "shard_0000.idx"}) {
    EXPECT_EQ(ReadBytes(first / file), ReadBytes(second / file)) << file;
  }
  EXPECT_FALSE(loaded.value().SaveDir(legacy()).ok());
  EXPECT_EQ(ReadBytes(legacy()), file_bytes);
}

// LoadDir reads directories only: a single-file index is a ParseError that
// names the manifest version this build reads and the last commit that
// reads such a file.
TEST_F(LegacyIndexFileTest, LoadDirRefusesASingleFile) {
  auto loaded = ShardedFragmentIndex::LoadDir(legacy());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  const std::string& msg = loaded.status().message();
  EXPECT_NE(msg.find("manifest version 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find(kLastRetiredFormatReader), std::string::npos) << msg;
}

class ManifestCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<EngineFixture>(15, 11);
    ASSERT_TRUE(fx_->index.ok());
    FragmentIndexOptions options;
    options.max_fragment_edges = 4;
    options.spec = DistanceSpec::EdgeMutation();
    auto built =
        ShardedFragmentIndex::Build(fx_->db, fx_->features, options, 3);
    ASSERT_TRUE(built.ok());
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("pis_manifest_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    ASSERT_TRUE(built.value().SaveDir(dir_).ok());
    sharded_ = std::make_unique<ShardedFragmentIndex>(built.MoveValue());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path ManifestPath() const {
    return std::filesystem::path(dir_) / "MANIFEST";
  }

  // A v4 manifest over `routing` (no compacted-away graphs): epoch 0,
  // local ids in insertion order, every routed graph live, policy off.
  void WriteManifest(uint32_t num_shards, const std::vector<int>& routing) {
    std::vector<int> local_of;
    std::vector<int> live(num_shards, 0);
    for (int s : routing) {
      const bool routable = s >= 0 && s < static_cast<int>(num_shards);
      local_of.push_back(routable ? live[s]++ : 0);
    }
    std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    BinaryWriter writer;
    writer.U32(kManifestMagic);
    writer.U32(4);
    writer.U32(num_shards);
    writer.U32(0);
    writer.VecInt(routing);
    writer.VecInt(local_of);
    writer.VecInt(live);
    writer.F64(0.0);
    WriteBytes(writer, &out);
    ASSERT_TRUE(out.good());
  }

  void PatchManifestVersion(uint32_t version) {
    std::fstream patch(ManifestPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4);
    BinaryWriter writer;
    writer.U32(version);
    WriteBytes(writer, &patch);
    ASSERT_TRUE(patch.good());
  }

  std::unique_ptr<EngineFixture> fx_;
  std::unique_ptr<ShardedFragmentIndex> sharded_;
  std::string dir_;
};

TEST_F(ManifestCompatTest, FutureManifestVersionRejected) {
  PatchManifestVersion(42);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

// Every version word but 4 — 0, each version older builds wrote, and the
// next one — is refused before anything after it is read.
TEST_F(ManifestCompatTest, EveryOtherManifestVersionIsRefused) {
  for (uint32_t version : {0u, 1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    PatchManifestVersion(version);
    auto loaded = ShardedFragmentIndex::LoadDir(dir_);
    ASSERT_FALSE(loaded.ok());
    ExpectVersionRefused(loaded.status(), StatusCode::kParseError, "manifest",
                         version, 4, 4);
  }
}

TEST_F(ManifestCompatTest, MissingShardFileIsInvalidArgument) {
  std::filesystem::remove(std::filesystem::path(dir_) / "shard_0002.idx");
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, SurplusShardFileIsInvalidArgument) {
  std::filesystem::copy_file(std::filesystem::path(dir_) / "shard_0000.idx",
                             std::filesystem::path(dir_) / "shard_0003.idx");
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, RoutingToNonexistentShardIsInvalidArgument) {
  std::vector<int> routing(15, 0);
  routing[7] = 9;  // only shards 0..2 exist
  WriteManifest(3, routing);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, RoutingDisagreeingWithShardSizesIsInvalidArgument) {
  // Structurally valid routing that sends every graph to shard 0 while the
  // files on disk hold 5 graphs each.
  WriteManifest(3, std::vector<int>(15, 0));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, InPlaceResaveWithFewerShardsRemovesStaleFiles) {
  // Rebuilding into the same directory with a smaller shard count must not
  // strand shard files the new manifest doesn't cover — LoadDir would
  // (correctly) reject the directory as inconsistent.
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  options.spec = DistanceSpec::EdgeMutation();
  auto smaller = ShardedFragmentIndex::Build(fx_->db, fx_->features, options, 2);
  ASSERT_TRUE(smaller.ok());
  ASSERT_TRUE(smaller.value().SaveDir(dir_).ok());
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir_) / "shard_0002.idx"));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_shards(), 2);
}

// SaveDir writes a v4 manifest; compaction state must round-trip through
// it: epoch, -1 routing for compacted-away ids, per-shard live counts.
TEST_F(ManifestCompatTest, ManifestRoundTripsCompactionState) {
  ASSERT_TRUE(sharded_->RemoveGraph(3).ok());
  ASSERT_TRUE(sharded_->RemoveGraph(11).ok());
  ASSERT_TRUE(sharded_->Compact().ok());
  EXPECT_EQ(sharded_->compaction_epoch(), 2);  // two shards rewritten
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 2);
  EXPECT_EQ(loaded.value().db_size(), 15);
  EXPECT_EQ(loaded.value().num_live(), 13);
  EXPECT_EQ(loaded.value().shard_of(3), -1);
  EXPECT_EQ(loaded.value().shard_of(11), -1);
  EXPECT_FALSE(loaded.value().IsLive(3));
  EXPECT_TRUE(loaded.value().IsLive(4));
  for (int s = 0; s < loaded.value().num_shards(); ++s) {
    EXPECT_TRUE(loaded.value().shard(s).tombstones().empty());
  }
}

// The v4 manifest trailing section: the auto-compaction policy must
// survive SaveDir/LoadDir, so a reloaded server keeps compacting at the
// configured dead ratio.
TEST_F(ManifestCompatTest, V4ManifestRoundTripsCompactionPolicy) {
  sharded_->set_compact_dead_ratio(0.35);
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compact_dead_ratio(), 0.35);
}

// A v3 directory (one written before the policy section existed) is
// exactly a v4 manifest with the version word rewound and the trailing
// ratio cut off — the strict-prefix property every format bump keeps. It
// must load with the policy off.
// A v4 manifest whose policy ratio was cut off parsed far enough to know
// what it promised: structural disagreement, not garbage.
TEST_F(ManifestCompatTest, V4ManifestMissingPolicyIsInvalidArgument) {
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(ManifestPath(), full - sizeof(double), ec);
  ASSERT_FALSE(ec);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

// A structurally valid manifest carrying a nonsense policy ratio is
// rejected loudly instead of arming a bogus auto-compaction threshold.
TEST_F(ManifestCompatTest, OutOfRangePolicyRatioIsInvalidArgument) {
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  {
    std::fstream patch(ManifestPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(static_cast<std::streamoff>(full - sizeof(double)));
    BinaryWriter writer;
    writer.F64(17.5);
    WriteBytes(writer, &patch);
    ASSERT_TRUE(patch.good());
  }
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("dead ratio"), std::string::npos);
}

// A manifest cut off after its routing table (local ids and live counts
// missing) parsed far enough to know what it promised — the failure is a
// structural disagreement (InvalidArgument), not unreadable garbage, and
// never a crash.
TEST_F(ManifestCompatTest, TruncatedV3SectionsAreInvalidArgument) {
  // Layout: magic(4) version(4) shards(4) epoch(4), VecInt shard_of
  // (8 + 15*4), then the sections we cut off.
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  ASSERT_GT(full, 16u + 68u);
  std::filesystem::resize_file(ManifestPath(), 16 + 68, ec);
  ASSERT_FALSE(ec);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST_F(ManifestCompatTest, TruncatedManifestIsParseError) {
  std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
  BinaryWriter writer;
  writer.U32(kManifestMagic);
  writer.U32(4u);
  WriteBytes(writer, &out);
  out.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(ManifestCompatTest, BadMagicIsParseError) {
  std::fstream patch(ManifestPath(),
                     std::ios::binary | std::ios::in | std::ios::out);
  patch.write("JUNK", 4);
  patch.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace pis
