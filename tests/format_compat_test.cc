// Serde format versioning: the incremental-update PR bumped the fragment
// index format to v2 (trailing tombstone section) and the shard manifest to
// v2 (explicit routing table); the compaction PR bumped both to v3 (index:
// compaction epoch + live count trailer; manifest: epoch, -1-aware routing,
// explicit local ids, per-shard live counts); the serving PR bumped the
// manifest to v4 (trailing auto-compaction policy); the index went to v4
// with a trailing superimposed-sketch section, and back to the v3 layout as
// v5 when that prefilter was removed (v4 files load by validating and
// discarding the section). Old fixtures must still load
// — including v2 files carrying tombstones, which must then compact
// correctly — files from the future must fail with a clear Status instead
// of garbage, and a manifest that disagrees with the files on disk (or is
// truncated mid-section) must come back as InvalidArgument — never a crash
// or DCHECK. A legacy single-file index (what `pis_cli build` wrote before
// every index became a manifest directory) loads through LoadDir as one
// shard and filters exactly as the single-index engine did. A class saved
// by the retired VP-tree backend (tag 2, a flat item list) loads by
// conversion: its items are checked and re-inserted into the backend the
// spec's distance type picks, and a malformed item is a ParseError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "index/fragment_index.h"
#include "index/rtree.h"
#include "index/sharded_index.h"
#include "index/trie_index.h"
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

// Every older index version is a strict prefix of the current one, with
// only the version word rewound — Save() keeps the newer sections trailing
// exactly so these fixtures stay constructible. A v3 file is a v5 file
// with the version word rewound (v5 is the v3 layout); a v2 file
// additionally drops the 8-byte epoch+live trailer; a v1 file additionally
// drops the 8-byte empty tombstone section. If this breaks after a format
// change, keep the new section trailing or bump the version with its own
// compat fixture. v4 is the one exception: it is a v5 file plus a trailing
// sketch section (MakeV4IndexBytes).

std::string MakeV3IndexBytes(const FragmentIndex& index) {
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  std::string bytes = out.str();
  PatchU32(&bytes, 4, 3);
  return bytes;
}

// A v4 file: a v5 Save() with the version word rewound to 4 and a
// well-formed sketch section appended — bits (I32), hashes (I32), word
// count (U64), then `graphs` blocks of bits / 64 code words. The loader
// validates and discards the section, so the word values are arbitrary.
std::string MakeV4IndexBytes(const FragmentIndex& index, int graphs) {
  constexpr int kSketchBits = 256;
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  BinaryWriter writer(out);
  writer.I32(kSketchBits);
  writer.I32(4);
  const uint64_t words = static_cast<uint64_t>(graphs) * (kSketchBits / 64);
  writer.U64(words);
  for (uint64_t i = 0; i < words; ++i) {
    writer.U64(0x9e3779b97f4a7c15ULL * (i + 1));
  }
  EXPECT_TRUE(writer.ok());
  std::string bytes = out.str();
  PatchU32(&bytes, 4, 4);
  return bytes;
}

std::string MakeV2IndexBytes(const FragmentIndex& index) {
  EXPECT_EQ(index.compaction_epoch(), 0u);
  std::string bytes = MakeV3IndexBytes(index);
  EXPECT_GE(bytes.size(), 16u);
  bytes.resize(bytes.size() - 8);
  PatchU32(&bytes, 4, 2);
  return bytes;
}

std::string MakeV1IndexBytes(const FragmentIndex& index) {
  EXPECT_TRUE(index.tombstones().empty());
  std::string bytes = MakeV2IndexBytes(index);
  bytes.resize(bytes.size() - 8);
  PatchU32(&bytes, 4, 1);
  return bytes;
}

TEST(FormatCompatTest, FragmentIndexV1FixtureLoads) {
  EngineFixture fx(12, 77);
  ASSERT_TRUE(fx.index.ok());
  std::stringstream in(MakeV1IndexBytes(fx.index.value().shard(0)));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), fx.index.value().db_size());
  EXPECT_EQ(loaded.value().num_classes(), fx.index.value().num_classes());
  EXPECT_EQ(loaded.value().num_live(), loaded.value().db_size());
  EXPECT_TRUE(loaded.value().tombstones().empty());

  // The reloaded v1 index answers queries identically to the original.
  ExpectSameAnswers(fx.db, fx.index.value(),
                    ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue()),
                    SampleQueries(fx.db, 3, 6, 19));
}

// A v2 file that carries tombstones (written before the v3 trailer
// existed) must load with its dead set intact — and then compact exactly
// like a natively written index: ids re-densified, postings dropped, and
// answers identical to a from-scratch build over the survivors.
TEST(FormatCompatTest, FragmentIndexV2WithTombstonesLoadsAndCompacts) {
  EngineFixture fx(12, 21);
  ASSERT_TRUE(fx.index.ok());
  const std::vector<int> dead = {1, 4, 9};
  for (int gid : dead) ASSERT_TRUE(fx.index.value().RemoveGraph(gid).ok());
  std::stringstream in(MakeV2IndexBytes(fx.index.value().shard(0)));
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
  std::vector<int> live_ids;
  for (int gid = 0; gid < fx.db.size(); ++gid) {
    if (remap[gid] < 0) continue;
    ASSERT_EQ(remap[gid], live_db.size());
    live_db.Add(fx.db.at(gid));
    live_ids.push_back(gid);
  }
  auto rebuilt = ShardedFragmentIndex::Build(live_db, fx.features,
                                             fx.index.value().options(), 1);
  ASSERT_TRUE(rebuilt.ok());
  ExpectSameAnswers(live_db, rebuilt.value(),
                    ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue()),
                    SampleQueries(fx.db, 3, 6, 23));
}

// v3 round trip: tombstones AND the compaction trailer survive Save/Load.
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

// A v3 trailer whose live count disagrees with the tombstone section is
// corruption, not a silently wrong selectivity denominator.
TEST(FormatCompatTest, FragmentIndexV3BadLiveCountRejected) {
  EngineFixture fx(8, 41);
  ASSERT_TRUE(fx.index.ok());
  std::string bytes = MakeV3IndexBytes(fx.index.value().shard(0));
  PatchU32(&bytes, bytes.size() - 4, 3);  // claim 3 live of 8, all live
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("live count"), std::string::npos);
}

// A v4 file loads by skipping its sketch section: the result is the v5
// index exactly — it resaves byte-identically to the v5 Save() and answers
// every query with the same answers and candidates.
TEST(FormatCompatTest, FragmentIndexV4FixtureLoadsAndAnswersLikeV5) {
  EngineFixture fx(12, 53);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(7).ok());
  const FragmentIndex& index = fx.index.value().shard(0);
  std::stringstream v5;
  ASSERT_TRUE(index.Save(v5).ok());
  std::stringstream in(MakeV4IndexBytes(index, index.db_size()));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), index.db_size());
  EXPECT_EQ(loaded.value().num_live(), index.num_live());
  std::stringstream resaved;
  ASSERT_TRUE(loaded.value().Save(resaved).ok());
  EXPECT_EQ(resaved.str(), v5.str());

  ExpectSameAnswers(fx.db, fx.index.value(),
                    ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue()),
                    SampleQueries(fx.db, 3, 6, 29));
}

// v5 round trip: Save -> Load -> Save must be byte-identical.
TEST(FormatCompatTest, FragmentIndexV5SaveLoadSaveIsByteIdentical) {
  EngineFixture fx(10, 59);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(3).ok());
  std::stringstream first;
  ASSERT_TRUE(fx.index.value().shard(0).Save(first).ok());
  std::stringstream in(first.str());
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::stringstream second;
  ASSERT_TRUE(loaded.value().Save(second).ok());
  EXPECT_EQ(first.str(), second.str());
}

// A file that declares v4 promised a sketch section. One cut off inside
// that section, or whose word count covers the wrong number of graphs,
// parsed far enough to know what it promised: InvalidArgument naming the
// sketch, never a crash or a silent load.
TEST(FormatCompatTest, TruncatedV4SketchSectionIsInvalidArgument) {
  EngineFixture fx(8, 67);
  ASSERT_TRUE(fx.index.ok());
  const FragmentIndex& index = fx.index.value().shard(0);
  const std::string v4 = MakeV4IndexBytes(index, index.db_size());
  std::stringstream v5;
  ASSERT_TRUE(index.Save(v5).ok());
  std::vector<std::string> inputs;
  inputs.push_back(v4.substr(0, v4.size() - 8));  // lose the last code word
  inputs.push_back(v4.substr(0, v5.str().size() + 6));  // cut in the header
  inputs.push_back(MakeV4IndexBytes(index, index.db_size() - 1));
  inputs.push_back(MakeV4IndexBytes(index, index.db_size() + 1));
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::stringstream in(inputs[i]);
    auto loaded = FragmentIndex::Load(in);
    ASSERT_FALSE(loaded.ok()) << "input " << i;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "input " << i;
    EXPECT_NE(loaded.status().message().find("sketch"), std::string::npos)
        << "input " << i;
  }
}

TEST(FormatCompatTest, FragmentIndexFutureVersionRejected) {
  EngineFixture fx(6, 3);
  ASSERT_TRUE(fx.index.ok());
  std::stringstream out;
  ASSERT_TRUE(fx.index.value().shard(0).Save(out).ok());
  std::string bytes = out.str();
  PatchU32(&bytes, 4, 6);
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

// ---- Legacy VP-tree classes -----------------------------------------

constexpr uint8_t kTrieTag = 0;  // class backend tags, as class_index.cc
constexpr uint8_t kRTreeTag = 1;
constexpr uint8_t kLegacyVpTag = 2;

// A v5 Save() cut into its header, its classes' bytes and its trailer (the
// tombstone list, the compaction epoch and the live count). Each class is
// re-serialized on its own to find its extent; the pieces must reassemble
// the file exactly.
struct SavedParts {
  std::string header;
  std::vector<std::string> classes;
  std::string tail;
};

SavedParts SplitSave(const FragmentIndex& index) {
  std::stringstream full;
  EXPECT_TRUE(index.Save(full).ok());
  const std::string bytes = full.str();
  SavedParts parts;
  std::string joined;
  for (int c = 0; c < index.num_classes(); ++c) {
    std::stringstream one;
    BinaryWriter writer(one);
    EXPECT_TRUE(index.class_at(c).Serialize(&writer).ok());
    parts.classes.push_back(one.str());
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

// One item of a VP-tree class's list: the fragment's label sequence, its
// weight vector and its graph id, as that backend buffered each Insert.
struct LegacyItem {
  std::vector<Label> labels;
  std::vector<double> weights;
  int graph_id;
};
using ItemEdit = std::function<void(std::vector<LegacyItem>*)>;

// Rewrites one serialized trie or R-tree class as the retired VP-tree
// backend wrote it: tag 2, the fragment count, the containment list, then
// the item count and the items. Trie items are its stored sequences, one
// per posting, with empty weights (a mutation spec built none); R-tree
// items are its points. The R-tree keeps no label sequences, so its items
// carry zero labels of the class's sequence length. `edit`, if set, changes
// the items after the fragment count is taken from them.
std::string ToLegacyVpClass(const std::string& class_bytes,
                            const DistanceSpec& spec, const ItemEdit& edit) {
  std::stringstream in(class_bytes);
  BinaryReader reader(in);
  const std::string key = reader.Str();
  const int32_t nv = reader.I32();
  const int32_t ne = reader.I32();
  const uint8_t tag = reader.U8();
  reader.U64();  // the item list below defines the fragment count
  const std::vector<int> containing = reader.VecInt();
  std::vector<LegacyItem> items;
  if (tag == kTrieTag) {
    auto trie = LabelTrie::Deserialize(&reader);
    EXPECT_TRUE(trie.ok());
    trie.value().ForEachSequence(
        [&](const std::vector<Label>& seq, const std::vector<int>& postings) {
          for (int gid : postings) items.push_back({seq, {}, gid});
        });
  } else {
    auto rtree = RTree::Deserialize(&reader);
    EXPECT_TRUE(rtree.ok());
    const int length = (spec.vertex_scores.IsZero() ? 0 : nv) + ne;
    rtree.value().ForEachPoint([&](const std::vector<double>& point, int gid) {
      items.push_back({std::vector<Label>(length, 0), point, gid});
    });
  }
  EXPECT_TRUE(reader.ok());
  const uint64_t num_fragments = items.size();
  if (edit) edit(&items);

  std::stringstream out;
  BinaryWriter writer(out);
  writer.Str(key);
  writer.I32(nv);
  writer.I32(ne);
  writer.U8(kLegacyVpTag);
  writer.U64(num_fragments);
  writer.VecInt(containing);
  writer.U64(items.size());
  for (const LegacyItem& item : items) {
    writer.VecI32(item.labels);
    writer.VecF64(item.weights);
    writer.I32(item.graph_id);
  }
  EXPECT_TRUE(writer.ok());
  return out.str();
}

// A v5 file as an older build wrote it with the VP-tree backend selected:
// the header's override flag set and followed by tag 2, and every class in
// the VP layout. The header ends with the flag, the db size (I32), four
// build counters (U64 each), the signature list (a U64 count, then one U64
// per distinct signature of the features Build registered) and the class
// count (U64). `edit` changes the items of the first non-empty class.
std::string MakeLegacyVpIndexBytes(const FragmentIndex& index,
                                   const std::vector<Graph>& features,
                                   const ItemEdit& edit = nullptr) {
  std::set<uint64_t> signatures;
  for (const Graph& f : features) {
    if (f.NumEdges() >= index.options().min_fragment_edges &&
        f.NumEdges() <= index.options().max_fragment_edges) {
      signatures.insert(StructureSignature(f));
    }
  }
  const SavedParts parts = SplitSave(index);
  std::string bytes = parts.header;
  const size_t signature_count_at = bytes.size() - 8 - 8 * signatures.size() - 8;
  uint64_t signature_count = 0;
  std::memcpy(&signature_count, bytes.data() + signature_count_at, 8);
  EXPECT_EQ(signature_count, signatures.size());
  const size_t flag_at = signature_count_at - 32 - 4 - 1;
  EXPECT_EQ(bytes[flag_at], '\0');
  bytes[flag_at] = 1;
  bytes.insert(flag_at + 1, 1, static_cast<char>(kLegacyVpTag));

  bool edited = false;
  for (const std::string& cls : parts.classes) {
    ItemEdit once;
    if (edit && !edited) {
      once = [&](std::vector<LegacyItem>* items) {
        if (items->empty()) return;
        edit(items);
        edited = true;
      };
    }
    bytes += ToLegacyVpClass(cls, index.options().spec, once);
  }
  EXPECT_EQ(edited, edit != nullptr);
  return bytes + parts.tail;
}

// Backend tag of every class in a saved index.
std::vector<uint8_t> ClassTags(const FragmentIndex& index) {
  std::vector<uint8_t> tags;
  for (const std::string& cls : SplitSave(index).classes) {
    tags.push_back(static_cast<uint8_t>(cls[TagOffset(cls)]));
  }
  return tags;
}

class LegacyVpClassTest : public ::testing::TestWithParam<bool> {
 protected:
  // 24 molecules indexed under every skeleton frequent in 3 of them, so
  // classes of 1 to 4 edges carry items, over the edge mutation distance
  // (trie) or the edge linear distance (R-tree). Graph 4 is removed, so the
  // items include a tombstoned graph's postings.
  void SetUp() override {
    MoleculeGeneratorOptions gopt;
    gopt.seed = 77;
    gopt.mean_vertices = 16;
    gopt.max_vertices = 60;
    db_ = MoleculeGenerator(gopt).Generate(24);
    GraphDatabase skeletons;
    for (const Graph& g : db_.graphs()) skeletons.Add(g.Skeleton());
    GspanOptions mine;
    mine.min_support = 3;
    mine.max_edges = 4;
    auto patterns = MineFrequentSubgraphs(skeletons, mine);
    ASSERT_TRUE(patterns.ok());
    for (const Pattern& p : patterns.value()) features_.push_back(p.graph);
    FragmentIndexOptions options;
    options.max_fragment_edges = 4;
    options.spec = GetParam() ? DistanceSpec::EdgeLinear()
                              : DistanceSpec::EdgeMutation();
    auto built = FragmentIndex::Build(db_, features_, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(built.value().RemoveGraph(4).ok());
    sharded_ = ShardedFragmentIndex::FromFragmentIndex(built.MoveValue());
    native_tag_ = GetParam() ? kRTreeTag : kTrieTag;
  }
  const FragmentIndex& index() const { return sharded_.value().shard(0); }

  GraphDatabase db_;
  std::vector<Graph> features_;
  Result<ShardedFragmentIndex> sharded_ = Status::Internal("unbuilt");
  uint8_t native_tag_ = 0;
};

// The converted index answers with the default-built index's answers and
// candidates, resaves with the native backend tags, and is byte-stable
// through a second save -> load -> save.
TEST_P(LegacyVpClassTest, LoadsAndAnswersLikeTheDefaultBackend) {
  std::stringstream in(MakeLegacyVpIndexBytes(index(), features_));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), index().db_size());
  EXPECT_EQ(loaded.value().num_live(), index().num_live());
  ASSERT_EQ(loaded.value().num_classes(), index().num_classes());
  for (int c = 0; c < index().num_classes(); ++c) {
    EXPECT_EQ(loaded.value().class_at(c).containing_graphs(),
              index().class_at(c).containing_graphs());
  }
  EXPECT_EQ(ClassTags(loaded.value()),
            std::vector<uint8_t>(index().num_classes(), native_tag_));

  std::stringstream first;
  ASSERT_TRUE(loaded.value().Save(first).ok());
  std::stringstream first_in(first.str());
  auto reloaded = FragmentIndex::Load(first_in);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::stringstream second;
  ASSERT_TRUE(reloaded.value().Save(second).ok());
  EXPECT_EQ(first.str(), second.str());

  // Every indexed query fragment's range query returns the same per-graph
  // minimum distances from both backends.
  const double sigma = GetParam() ? 0.2 : 1.0;
  auto min_distances = [sigma](const FragmentIndex& idx, const Graph& f) {
    std::map<int, double> out;
    EXPECT_TRUE(idx.RangeQuery(f, sigma, [&](int gid, double d) {
                     auto [it, fresh] = out.emplace(gid, d);
                     if (!fresh) it->second = std::min(it->second, d);
                   }).ok());
    return out;
  };
  size_t hits = 0;
  for (int edges = 1; edges <= 4; ++edges) {
    for (const Graph& f : SampleQueries(db_, 6, edges, 90 + edges)) {
      if (!index().HasClass(f)) continue;
      const std::map<int, double> want = min_distances(index(), f);
      EXPECT_EQ(min_distances(loaded.value(), f), want);
      hits += want.size();
    }
  }
  EXPECT_GT(hits, 0u);

  // And the engine filters and verifies identically over both.
  PisOptions options;
  options.sigma = sigma;
  const ShardedFragmentIndex converted =
      ShardedFragmentIndex::FromFragmentIndex(loaded.MoveValue());
  PisEngine want(&db_, &sharded_.value(), options);
  PisEngine got(&db_, &converted, options);
  for (const Graph& q : SampleQueries(db_, 4, 9, 17)) {
    auto a = want.Search(q);
    auto b = got.Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
    pis::testing::ExpectSameCounters(a.value().stats, b.value().stats);
  }
}

// Items whose vectors do not fit the class, or whose count disagrees with
// the stored fragment count, are rejected before they reach a backend.
TEST_P(LegacyVpClassTest, MalformedItemsAreParseErrors) {
  const bool linear = GetParam();
  struct Case {
    const char* name;
    ItemEdit edit;
    const char* message;
  };
  std::vector<Case> cases = {
      {"truncated labels",
       [](std::vector<LegacyItem>* items) { items->front().labels.pop_back(); },
       "item length"},
      {"dropped item",
       [](std::vector<LegacyItem>* items) { items->pop_back(); },
       "item count"},
  };
  if (linear) {
    cases.push_back({"long weights",
                     [](std::vector<LegacyItem>* items) {
                       items->front().weights.push_back(1.0);
                     },
                     "item length"});
    cases.push_back({"short weights",
                     [](std::vector<LegacyItem>* items) {
                       items->front().weights.pop_back();
                     },
                     "item length"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::stringstream in(MakeLegacyVpIndexBytes(index(), features_, c.edit));
    auto loaded = FragmentIndex::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
        << loaded.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, LegacyVpClassTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "EdgeLinear" : "EdgeMutation";
                         });

// Only the spec's own backend and the legacy list load: a trie class in a
// linear-distance file, or an R-tree class in a mutation-distance file, is
// a ParseError.
TEST(FormatCompatTest, ClassTagForTheOtherDistanceIsParseError) {
  for (bool linear : {false, true}) {
    SCOPED_TRACE(linear ? "linear file, trie tag" : "mutation file, rtree tag");
    EngineFixture fx(8, 71, 4,
                     linear ? DistanceSpec::EdgeLinear()
                            : DistanceSpec::EdgeMutation());
    ASSERT_TRUE(fx.index.ok());
    SavedParts parts = SplitSave(fx.index.value().shard(0));
    ASSERT_FALSE(parts.classes.empty());
    std::string& first = parts.classes.front();
    first[TagOffset(first)] = static_cast<char>(linear ? kTrieTag : kRTreeTag);
    std::string bytes = parts.header;
    for (const std::string& cls : parts.classes) bytes += cls;
    std::stringstream in(bytes + parts.tail);
    auto loaded = FragmentIndex::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("backend tag"), std::string::npos);
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
  std::string bytes = parts.header;
  for (const std::string& cls : parts.classes) bytes += cls;
  std::stringstream in(bytes + parts.tail);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("class index header"),
            std::string::npos);
}

// ---- Legacy single-file indexes --------------------------------------

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// EngineFixture(24, 77) with graph 5 removed, saved by
// FragmentIndex::SaveFile: the single file `pis_cli build` wrote before
// indexes became manifest directories.
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

  EngineFixture fx_{24, 77};
  std::filesystem::path root_;
};

TEST_F(LegacyIndexFileTest, LoadsAsOneShardWithIdentityRouting) {
  auto loaded = ShardedFragmentIndex::LoadDir(legacy());
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
// the legacy file must filter exactly as it did through Filter and Search
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
  auto loaded = ShardedFragmentIndex::LoadDir(legacy());
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

// SaveDir of a loaded legacy index writes a one-shard directory whose shard
// file is the legacy file byte for byte; SaveDir -> LoadDir -> SaveDir is
// byte-stable; saving over the legacy file itself swaps a directory in.
TEST_F(LegacyIndexFileTest, SaveDirRoundTripIsByteStable) {
  auto loaded = ShardedFragmentIndex::LoadDir(legacy());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::filesystem::path first = root_ / "first";
  const std::filesystem::path second = root_ / "second";
  ASSERT_TRUE(loaded.value().SaveDir(first.string()).ok());
  EXPECT_EQ(ReadBytes(first / "shard_0000.idx"), ReadBytes(legacy()));
  auto reloaded = ShardedFragmentIndex::LoadDir(first.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded.value().SaveDir(second.string()).ok());
  for (const char* file : {"MANIFEST", "shard_0000.idx"}) {
    EXPECT_EQ(ReadBytes(first / file), ReadBytes(second / file)) << file;
  }
  ASSERT_TRUE(loaded.value().SaveDir(legacy()).ok());
  EXPECT_EQ(ReadBytes(std::filesystem::path(legacy()) / "MANIFEST"),
            ReadBytes(first / "MANIFEST"));
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

  void WriteManifest(uint32_t version, uint32_t num_shards,
                     const std::vector<int>& payload) {
    std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    BinaryWriter writer(out);
    writer.U32(kManifestMagic);
    writer.U32(version);
    writer.U32(num_shards);
    writer.VecInt(payload);
    ASSERT_TRUE(writer.ok());
  }

  std::unique_ptr<EngineFixture> fx_;
  std::unique_ptr<ShardedFragmentIndex> sharded_;
  std::string dir_;
};

TEST_F(ManifestCompatTest, V1ContiguousManifestLoads) {
  // Rewrite the manifest in the v1 layout (contiguous id ranges). The build
  // assigned contiguous ranges, so the offsets describe the same routing.
  std::vector<int> offsets = {0};
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    offsets.push_back(offsets.back() + sharded_->shard_size(s));
  }
  WriteManifest(1, 3, offsets);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), sharded_->db_size());
  for (int gid = 0; gid < sharded_->db_size(); ++gid) {
    EXPECT_EQ(loaded.value().shard_of(gid), sharded_->shard_of(gid));
  }
}

TEST_F(ManifestCompatTest, FutureManifestVersionRejected) {
  WriteManifest(42, 3, std::vector<int>(15, 0));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
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
  WriteManifest(2, 3, routing);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, RoutingDisagreeingWithShardSizesIsInvalidArgument) {
  // Structurally valid routing that sends every graph to shard 0 while the
  // files on disk hold 5 graphs each.
  WriteManifest(2, 3, std::vector<int>(15, 0));
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
TEST_F(ManifestCompatTest, V3ManifestLoadsWithPolicyOff) {
  sharded_->set_compact_dead_ratio(0.35);
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(ManifestPath(), full - sizeof(double), ec);
  ASSERT_FALSE(ec);
  {
    std::fstream patch(ManifestPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4);
    BinaryWriter writer(patch);
    writer.U32(3u);
    ASSERT_TRUE(writer.ok());
  }
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compact_dead_ratio(), 0.0);
  EXPECT_EQ(loaded.value().db_size(), sharded_->db_size());
}

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
    BinaryWriter writer(patch);
    writer.F64(17.5);
    ASSERT_TRUE(writer.ok());
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
  BinaryWriter writer(out);
  writer.U32(kManifestMagic);
  writer.U32(2u);
  out.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(ManifestCompatTest, BadMagicIsParseError) {
  WriteManifest(2, 3, std::vector<int>(15, 0));
  std::fstream patch(ManifestPath(),
                     std::ios::binary | std::ios::in | std::ios::out);
  patch.write("JUNK", 4);
  patch.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace pis
