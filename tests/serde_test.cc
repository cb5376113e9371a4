// Binary serde primitives + index persistence round trips.
#include "util/serde.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "distance/score_matrix.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_index.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "mining/gspan.h"
#include "util/random.h"

namespace pis {
namespace {

TEST(SerdeTest, PrimitiveRoundTrip) {
  std::stringstream buf;
  BinaryWriter writer(buf);
  writer.U8(7);
  writer.U32(0xdeadbeef);
  writer.U64(1ull << 40);
  writer.I32(-42);
  writer.F64(3.25);
  writer.Str("hello");
  writer.VecInt({1, -2, 3});
  writer.VecF64({0.5, -1.5});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(buf);
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
  std::stringstream buf;
  BinaryWriter writer(buf);
  writer.U32(5);
  BinaryReader reader(buf);
  reader.U32();
  reader.U64();  // past the end
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Check("x").ok());
  // Latch stays down.
  reader.U8();
  EXPECT_FALSE(reader.ok());
}

TEST(SerdeTest, CorruptLengthRejected) {
  std::stringstream buf;
  BinaryWriter writer(buf);
  writer.U64(~0ull);  // absurd container length
  BinaryReader reader(buf);
  std::string s = reader.Str();
  EXPECT_FALSE(reader.ok());
}

TEST(ScoreMatrixSerdeTest, RoundTrip) {
  ScoreMatrix m(2.0);
  ASSERT_TRUE(m.Set(1, 2, 0.25).ok());
  ASSERT_TRUE(m.Set(3, 4, 1.75).ok());
  std::stringstream buf;
  BinaryWriter writer(buf);
  m.Serialize(&writer);
  BinaryReader reader(buf);
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
  std::stringstream buf;
  BinaryWriter writer(buf);
  trie.Serialize(&writer);
  BinaryReader reader(buf);
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
  std::stringstream buf;
  BinaryWriter writer(buf);
  tree.Serialize(&writer);
  BinaryReader reader(buf);
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
  GraphDatabase skeletons;
  for (const Graph& g : db.graphs()) skeletons.Add(g.Skeleton());
  GspanOptions mine;
  mine.min_support = 3;
  mine.max_edges = 4;
  auto patterns = MineFrequentSubgraphs(skeletons, mine);
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

}  // namespace
}  // namespace pis
