// Binary serde primitives + index persistence round trips.
#include "util/serde.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "distance/score_matrix.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "index/sharded_index.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "mining/gspan.h"
#include "util/random.h"

namespace pis {
namespace {

TEST(SerdeTest, PrimitiveRoundTrip) {
  BinaryWriter writer;
  writer.U8(7);
  writer.U32(0xdeadbeef);
  writer.U64(1ull << 40);
  writer.I32(-42);
  writer.F64(3.25);
  writer.Str("hello");
  writer.VecInt({1, -2, 3});
  writer.VecF64({0.5, -1.5});

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.U8(), 7);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), 1ull << 40);
  EXPECT_EQ(reader.I32(), -42);
  EXPECT_DOUBLE_EQ(reader.F64(), 3.25);
  EXPECT_EQ(reader.Str(), "hello");
  EXPECT_EQ(reader.VecInt(), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(reader.VecF64(), (std::vector<double>{0.5, -1.5}));
  EXPECT_TRUE(reader.ok());
}

TEST(SerdeTest, TruncationLatchesFailure) {
  BinaryWriter writer;
  writer.U32(5);
  BinaryReader reader(writer.buffer());
  reader.U32();
  reader.U64();  // past the end
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Check("x").ok());
  // Latch stays down.
  reader.U8();
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeTest, CorruptLengthRejected) {
  BinaryWriter writer;
  writer.U64(~0ull);  // absurd container length
  BinaryReader reader(writer.buffer());
  std::string s = reader.Str();
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeTest, VecIntRoundTripsWholeBlocks) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{100000}}) {
    SCOPED_TRACE(n);
    std::vector<int> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = i % 3 == 0 ? -static_cast<int>(i) : static_cast<int>(i * 7);
    }
    if (n > 1) values[1] = std::numeric_limits<int>::min();
    BinaryWriter writer;
    writer.VecInt(values);
    writer.U8(0x5a);  // a sentinel after the block
    ASSERT_EQ(writer.buffer().size(), 8 + 4 * n + 1);
    BinaryReader reader(writer.buffer());
    EXPECT_EQ(reader.VecInt(), values);
    EXPECT_EQ(reader.U8(), 0x5a);
    EXPECT_TRUE(reader.ok());
  }
}

TEST(SerdeTest, VecIntRefusesACountLargerThanTheBytesLeft) {
  BinaryWriter writer;
  writer.U64(3);  // claims three ints ...
  writer.I32(1);
  writer.I32(2);  // ... but holds two
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.VecInt().empty());
  EXPECT_FALSE(reader.ok());

  BinaryWriter huge;
  huge.U64(uint64_t{1} << 62);  // would overflow a byte count
  huge.I32(7);
  BinaryReader huge_reader(huge.buffer());
  EXPECT_TRUE(huge_reader.VecInt().empty());
  EXPECT_FALSE(huge_reader.ok());
}

TEST(ScoreMatrixSerdeTest, RoundTrip) {
  ScoreMatrix m(2.0);
  ASSERT_TRUE(m.Set(1, 2, 0.25).ok());
  ASSERT_TRUE(m.Set(3, 4, 1.75).ok());
  BinaryWriter writer;
  m.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto back = ScoreMatrix::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().Cost(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(back.value().Cost(4, 3), 1.75);
  EXPECT_DOUBLE_EQ(back.value().Cost(1, 9), 2.0);
  EXPECT_DOUBLE_EQ(back.value().Cost(5, 5), 0.0);
}

TEST(TrieSerdeTest, RoundTripPreservesRangeQueries) {
  Rng rng(1);
  LabelTrie trie(4);
  for (int gid = 0; gid < 30; ++gid) {
    for (int k = 0; k < 10; ++k) {
      std::vector<Label> seq(4);
      for (Label& s : seq) s = rng.UniformInt(1, 3);
      trie.Insert(seq, gid);
    }
  }
  trie.Finalize();
  BinaryWriter writer;
  trie.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto back = LabelTrie::Deserialize(&reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().NumNodes(), trie.NumNodes());
  EXPECT_EQ(back.value().NumPostings(), trie.NumPostings());

  ScoreMatrix unit = ScoreMatrix::Unit();
  SequenceCostModel model{&unit, &unit, 0};
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Label> q(4);
    for (Label& s : q) s = rng.UniformInt(1, 3);
    std::map<int, double> a;
    std::map<int, double> b;
    auto collect = [](std::map<int, double>* out) {
      return [out](int gid, double d) {
        auto [it, ok] = out->emplace(gid, d);
        if (!ok) it->second = std::min(it->second, d);
      };
    };
    trie.RangeQuery(q, model, 2, collect(&a));
    back.value().RangeQuery(q, model, 2, collect(&b));
    EXPECT_EQ(a, b);
  }
}

TEST(RTreeSerdeTest, RoundTripPreservesContents) {
  Rng rng(2);
  RTree tree(3);
  for (int i = 0; i < 500; ++i) {
    tree.Insert({rng.UniformDouble(0, 5), rng.UniformDouble(0, 5),
                 rng.UniformDouble(0, 5)},
                i);
  }
  BinaryWriter writer;
  tree.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto back = RTree::Deserialize(&reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().size(), tree.size());
  EXPECT_TRUE(back.value().CheckInvariants());
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> center = {rng.UniformDouble(0, 5), rng.UniformDouble(0, 5),
                                  rng.UniformDouble(0, 5)};
    std::map<int, double> a;
    std::map<int, double> b;
    tree.RangeQueryL1(center, 2, [&](int p, double d) { a.emplace(p, d); });
    back.value().RangeQueryL1(center, 2, [&](int p, double d) { b.emplace(p, d); });
    EXPECT_EQ(a, b);
  }
}

class FragmentIndexSerdeTest : public ::testing::TestWithParam<int> {};

TEST_P(FragmentIndexSerdeTest, SaveLoadServesIdenticalQueries) {
  const int variant = GetParam();
  MoleculeGeneratorOptions gopt;
  gopt.seed = 200 + variant;
  gopt.mean_vertices = 14;
  gopt.max_vertices = 40;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(20);
  GspanOptions mine;
  mine.min_support = 3;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(db, mine);
  ASSERT_TRUE(patterns.ok());
  std::vector<Graph> features;
  for (const Pattern& p : patterns.value()) features.push_back(p.graph);

  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  switch (variant % 3) {
    case 0:
      options.spec = DistanceSpec::EdgeMutation();
      break;
    case 1:
      options.spec = DistanceSpec::EdgeLinear();
      break;
    case 2:
      options.spec = DistanceSpec::FullMutation();
      break;
  }
  auto index = FragmentIndex::Build(db, features, options);
  ASSERT_TRUE(index.ok());

  std::stringstream buf;
  ASSERT_TRUE(index.value().Save(buf).ok());
  auto loaded = FragmentIndex::Load(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_classes(), index.value().num_classes());
  EXPECT_EQ(loaded.value().db_size(), index.value().db_size());

  // FullMutation scores vertex labels too, so its queries keep theirs.
  QuerySampler sampler(&db, {.seed = 5,
                             .strip_vertex_labels = variant % 3 != 2});
  double sigma = variant % 3 == 1 ? 0.2 : 2.0;
  for (int trial = 0; trial < 5; ++trial) {
    auto fragment = sampler.Sample(3);
    ASSERT_TRUE(fragment.ok());
    if (!index.value().HasClass(fragment.value())) {
      EXPECT_FALSE(loaded.value().HasClass(fragment.value()));
      continue;
    }
    std::map<int, double> a;
    std::map<int, double> b;
    auto collect = [](std::map<int, double>* out) {
      return [out](int gid, double d) {
        auto [it, ok] = out->emplace(gid, d);
        if (!ok) it->second = std::min(it->second, d);
      };
    };
    ASSERT_TRUE(index.value().RangeQuery(fragment.value(), sigma, collect(&a)).ok());
    ASSERT_TRUE(loaded.value().RangeQuery(fragment.value(), sigma, collect(&b)).ok());
    EXPECT_EQ(a, b);
  }
  // Containment lists survive (topoPrune works on a loaded index).
  for (int c = 0; c < index.value().num_classes(); ++c) {
    const std::string& key = index.value().class_at(c).key();
    bool found = false;
    for (int c2 = 0; c2 < loaded.value().num_classes(); ++c2) {
      if (loaded.value().class_at(c2).key() == key) {
        EXPECT_EQ(loaded.value().class_at(c2).containing_graphs(),
                  index.value().class_at(c).containing_graphs());
        found = true;
      }
    }
    EXPECT_TRUE(found) << "class " << key << " lost in round trip";
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, FragmentIndexSerdeTest, ::testing::Range(0, 6));

TEST(FragmentIndexSerdeTest, RejectsGarbage) {
  std::stringstream buf;
  buf << "this is not an index file at all";
  EXPECT_EQ(FragmentIndex::Load(buf).status().code(), StatusCode::kParseError);
}

TEST(FragmentIndexSerdeTest, FileRoundTrip) {
  MoleculeGenerator gen;
  GraphDatabase db = gen.Generate(5);
  Graph edge;
  edge.AddVertex(kNoLabel);
  edge.AddVertex(kNoLabel);
  ASSERT_TRUE(edge.AddEdge(0, 1).ok());
  auto index = FragmentIndex::Build(db, {edge}, {});
  ASSERT_TRUE(index.ok());
  std::string path = ::testing::TempDir() + "/pis_index.bin";
  ASSERT_TRUE(index.value().SaveFile(path).ok());
  auto loaded = FragmentIndex::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_classes(), 1);
  EXPECT_EQ(FragmentIndex::LoadFile("/nonexistent.bin").status().code(),
            StatusCode::kIOError);
}

// Every proper prefix of a saved shard file, and of the manifest, is
// refused with a Status by LoadDir: no crash, and no index that is short of
// what was saved.
TEST(IndexFileTruncationTest, EveryPrefixOfAShardFileAndTheManifestIsRefused) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 41;
  gopt.mean_vertices = 10;
  gopt.max_vertices = 16;
  GraphDatabase db = MoleculeGenerator(gopt).Generate(6);
  Graph edge;
  edge.AddVertex(kNoLabel);
  edge.AddVertex(kNoLabel);
  ASSERT_TRUE(edge.AddEdge(0, 1).ok());
  Graph path = edge;
  const VertexId v = path.AddVertex(kNoLabel);
  ASSERT_TRUE(path.AddEdge(1, v).ok());
  FragmentIndexOptions options;
  options.max_fragment_edges = 2;
  auto index = ShardedFragmentIndex::Build(db, {edge, path}, options, 2);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index.value().RemoveGraph(1).ok());  // a tombstone to truncate

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "pis_truncation";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(index.value().SaveDir(dir.string()).ok());
  ASSERT_TRUE(ShardedFragmentIndex::LoadDir(dir.string()).ok());
  for (const char* name : {"MANIFEST", "shard_0000.idx"}) {
    SCOPED_TRACE(name);
    const std::filesystem::path file = dir / name;
    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 16u);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(cut));
      }
      auto loaded = ShardedFragmentIndex::LoadDir(dir.string());
      EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
      if (loaded.ok()) break;
    }
    std::ofstream restore(file, std::ios::binary | std::ios::trunc);
    restore.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_TRUE(ShardedFragmentIndex::LoadDir(dir.string()).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pis
