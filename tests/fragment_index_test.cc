#include "index/fragment_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/query_fragments.h"
#include "distance/superimposed.h"
#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "index/fragment_enum.h"
#include "index_reference.h"
#include "util/random.h"

namespace pis {
namespace {

using ::pis::testing::HasClass;
using ::pis::testing::PrepareFragment;
using ::pis::testing::RangeQuery;
using ::pis::testing::ReferenceVectors;

Graph Cycle(int n, Label elabel = 1) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddVertex(1);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, (i + 1) % n, elabel).ok());
  }
  return g;
}

Graph PathGraph(int edges, Label elabel = 1) {
  Graph g;
  g.AddVertex(1);
  for (int i = 0; i < edges; ++i) {
    g.AddVertex(1);
    EXPECT_TRUE(g.AddEdge(i, i + 1, elabel).ok());
  }
  return g;
}

// Skeleton feature set: paths of 1..k edges plus cycles 5,6.
std::vector<Graph> BasicFeatures(int max_path_edges) {
  std::vector<Graph> features;
  for (int k = 1; k <= max_path_edges; ++k) {
    features.push_back(PathGraph(k).Skeleton());
  }
  features.push_back(Cycle(5).Skeleton());
  features.push_back(Cycle(6).Skeleton());
  return features;
}

// Oracle for d(g, G): min over all same-skeleton fragments of G of the
// isomorphic mutation distance, computed by exhaustive enumeration.
double OracleFragmentDistance(const Graph& fragment, const Graph& target,
                              const SuperimposeCostModel& model) {
  return MinSuperimposedDistance(fragment, target, model);
}

TEST(FragmentIndexTest, BuildRegistersClasses) {
  GraphDatabase db;
  db.Add(Cycle(6));
  db.Add(PathGraph(4));
  FragmentIndexOptions options;
  options.max_fragment_edges = 6;
  auto index = FragmentIndex::Build(db, BasicFeatures(4), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value().num_classes(), 6);  // 4 paths + 2 cycles
  EXPECT_GT(index.value().stats().num_sequences_inserted, 0u);
}

TEST(FragmentIndexTest, PrepareRejectsUnindexedSkeleton) {
  GraphDatabase db;
  db.Add(Cycle(6));
  FragmentIndexOptions options;
  auto index = FragmentIndex::Build(db, {PathGraph(1).Skeleton()}, options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(HasClass(index.value(), PathGraph(1)));
  EXPECT_FALSE(HasClass(index.value(), Cycle(3)));
  EXPECT_EQ(PrepareFragment(index.value(), Cycle(3)).status().code(),
            StatusCode::kNotFound);
  // The index's own scan agrees: the triangle's single edges are the one
  // class, its 2-edge paths and the triangle itself no class.
  IndexScan scan(index.value());
  std::map<size_t, std::set<int>> classes_by_size;
  scan.Run(Cycle(3), [&](const SkeletonSubset& subset, int class_id) {
    classes_by_size[subset.edges.size()].insert(class_id);
    return true;
  });
  EXPECT_EQ(classes_by_size, (std::map<size_t, std::set<int>>{
                                 {1, {0}}, {2, {-1}}, {3, {-1}}}));
}

TEST(FragmentIndexTest, RangeQueryFindsExactFragment) {
  GraphDatabase db;
  Graph g = Cycle(6, 1);
  g.SetEdgeLabel(0, 2);
  db.Add(g);            // ring with one double bond
  db.Add(Cycle(6, 1));  // plain ring
  FragmentIndexOptions options;
  options.max_fragment_edges = 6;
  auto index = FragmentIndex::Build(db, BasicFeatures(3), options);
  ASSERT_TRUE(index.ok());

  Graph query_ring = Cycle(6, 1);
  std::map<int, double> hits;
  ASSERT_TRUE(RangeQuery(index.value(), query_ring, 0.0,
                         [&](int gid, double d) {
                           auto [it, ok] = hits.emplace(gid, d);
                           if (!ok) it->second = std::min(it->second, d);
                         }).ok());
  // Only graph 1 contains the all-single ring at distance 0.
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.count(1), 1u);

  hits.clear();
  ASSERT_TRUE(RangeQuery(index.value(), query_ring, 1.0,
                         [&](int gid, double d) {
                           auto [it, ok] = hits.emplace(gid, d);
                           if (!ok) it->second = std::min(it->second, d);
                         }).ok());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0], 1.0);
  EXPECT_DOUBLE_EQ(hits[1], 0.0);
}

TEST(FragmentIndexTest, AutomorphismInsertionGivesExactMinimum) {
  // A ring labeled [2,1,1,1,1,1] vs query ring [1,1,2,1,1,1]: rotations
  // align them at distance 0; without automorphism-aware insertion the trie
  // would report 2.
  GraphDatabase db;
  Graph g = Cycle(6, 1);
  g.SetEdgeLabel(0, 2);
  db.Add(g);
  FragmentIndexOptions options;
  options.max_fragment_edges = 6;
  auto index = FragmentIndex::Build(db, BasicFeatures(2), options);
  ASSERT_TRUE(index.ok());
  Graph query = Cycle(6, 1);
  query.SetEdgeLabel(2, 2);
  double best = -1;
  ASSERT_TRUE(RangeQuery(index.value(), query, 6.0,
                         [&](int, double d) {
                           best = best < 0 ? d : std::min(best, d);
                         }).ok());
  EXPECT_DOUBLE_EQ(best, 0.0);
}

TEST(FragmentIndexTest, LinearDistanceViaRTree) {
  GraphDatabase db;
  Graph a = PathGraph(2);
  a.SetEdgeWeight(0, 1.0);
  a.SetEdgeWeight(1, 2.0);
  db.Add(a);
  Graph b = PathGraph(2);
  b.SetEdgeWeight(0, 5.0);
  b.SetEdgeWeight(1, 5.0);
  db.Add(b);
  FragmentIndexOptions options;
  options.spec = DistanceSpec::EdgeLinear();
  options.max_fragment_edges = 2;
  auto index = FragmentIndex::Build(db, BasicFeatures(2), options);
  ASSERT_TRUE(index.ok());

  Graph query = PathGraph(2);
  query.SetEdgeWeight(0, 1.25);
  query.SetEdgeWeight(1, 2.0);
  std::map<int, double> hits;
  ASSERT_TRUE(RangeQuery(index.value(), query, 0.5,
                         [&](int gid, double d) {
                           auto [it, ok] = hits.emplace(gid, d);
                           if (!ok) it->second = std::min(it->second, d);
                         }).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NEAR(hits[0], 0.25, 1e-9);
}

// Property: index range-query distances equal the exact fragment
// superimposed distance (the identity behind Eq. 3), on molecule data.
class FragmentIndexOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(FragmentIndexOracleTest, RangeDistancesAreExact) {
  MoleculeGeneratorOptions gopt;
  gopt.seed = 500 + GetParam();
  gopt.mean_vertices = 14;
  gopt.max_vertices = 30;
  MoleculeGenerator gen(gopt);
  GraphDatabase db = gen.Generate(12);
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  auto index = FragmentIndex::Build(db, BasicFeatures(4), options);
  ASSERT_TRUE(index.ok());

  auto model = options.spec.MakeCostModel();
  QuerySampler sampler(&db,
                       {.seed = 900 + static_cast<uint64_t>(GetParam()),
                        .strip_vertex_labels = false});
  const double sigma = 2.0;
  for (int trial = 0; trial < 4; ++trial) {
    auto fragment = sampler.Sample(3);
    ASSERT_TRUE(fragment.ok());
    if (!HasClass(index.value(), fragment.value())) continue;
    std::map<int, double> hits;
    ASSERT_TRUE(RangeQuery(index.value(), fragment.value(), sigma,
                           [&](int gid, double d) {
                             auto [it, ok] = hits.emplace(gid, d);
                             if (!ok) it->second = std::min(it->second, d);
                           }).ok());
    for (int gid = 0; gid < db.size(); ++gid) {
      double exact = OracleFragmentDistance(fragment.value(), db.at(gid), *model);
      if (exact <= sigma) {
        ASSERT_EQ(hits.count(gid), 1u) << "gid " << gid << " missing";
        EXPECT_DOUBLE_EQ(hits[gid], exact);
      } else {
        EXPECT_EQ(hits.count(gid), 0u) << "gid " << gid << " spurious";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentIndexOracleTest, ::testing::Range(0, 10));

// --- Build-scan exactness -------------------------------------------------

// Edges stored with u > v, all labels and weights equal: the orientation of
// every stored edge is reversed relative to EdgeSubgraph's first-appearance
// numbering, and the 4-cycle's automorphisms collide on every sequence.
Graph ReversedSymmetricHost() {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddVertex(1, 1.5);
  EXPECT_TRUE(g.AddEdge(1, 0, 1, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(2, 1, 1, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(3, 2, 1, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(3, 0, 1, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(4, 3, 1, 2.0).ok());
  return g;
}

constexpr int kScanMaxEdges = 5;

// The hand-built host plus seeded random graphs over two-letter alphabets
// (so symmetric labels are common).
GraphDatabase ScanDatabase(uint64_t seed) {
  Rng rng(seed);
  RandomGraphOptions opts;
  opts.num_vertices = 8;
  opts.num_edges = 11;
  opts.vertex_alphabet = 2;
  opts.edge_alphabet = 2;
  opts.max_weight = 4.0;
  GraphDatabase db;
  db.Add(ReversedSymmetricHost());
  for (int i = 0; i < 6; ++i) db.Add(GenerateRandomConnectedGraph(opts, &rng));
  return db;
}

// Spider with legs of the given lengths around one center vertex.
Graph Spider(const std::vector<int>& legs) {
  Graph g;
  VertexId center = g.AddVertex(1);
  for (int length : legs) {
    VertexId prev = center;
    for (int i = 0; i < length; ++i) {
      VertexId next = g.AddVertex(1);
      EXPECT_TRUE(g.AddEdge(prev, next, 1).ok());
      prev = next;
    }
  }
  return g;
}

// Paths, the triangle, the 5-cycle, the 3-star and the spider with legs
// 3,1,1 — but not the spider with legs 2,2,1, which has the same degree
// multiset. Scans therefore see indexed subsets and unindexed ones,
// some of them close to an indexed skeleton.
std::vector<Graph> ScanFeatures() {
  std::vector<Graph> features = BasicFeatures(kScanMaxEdges);
  features.push_back(Cycle(3).Skeleton());
  features.push_back(Spider({1, 1, 1}).Skeleton());
  features.push_back(Spider({3, 1, 1}).Skeleton());
  return features;
}

struct ScanVariant {
  const char* name;
  uint64_t seed;
  DistanceSpec spec;
};

// Edge mutation over tries; linear distance over R-trees with vertex and
// edge weights; mutation with vertex scores, so vertex labels enter the
// sequences.
std::vector<ScanVariant> ScanVariants() {
  DistanceSpec linear = DistanceSpec::EdgeLinear();
  linear.use_vertex_weights = true;
  linear.use_edge_weights = true;
  return {{"edge_mutation_trie", 11, DistanceSpec::EdgeMutation()},
          {"vertex_edge_linear_rtree", 12, linear},
          {"full_mutation_trie", 13, DistanceSpec::FullMutation()}};
}

FragmentIndexOptions ScanOptions(const ScanVariant& variant) {
  FragmentIndexOptions options;
  options.max_fragment_edges = kScanMaxEdges;
  options.spec = variant.spec;
  return options;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the bytes of fresh builds. Recorded with index v6, whose builds
// insert each fragment's automorphic sequences in the order of its
// skeleton's automorphisms: the same sequences and postings as the v5
// builds before it (checked class by class), in a layout without the
// signature section.
TEST(FragmentIndexScanTest, SavedBytesArePinned) {
  const std::map<std::string, uint64_t> expected = {
      {"edge_mutation_trie", 0x6a5bb38eec9d81b5ULL},
      {"vertex_edge_linear_rtree", 0xbb23f85b4c9d56d5ULL},
      {"full_mutation_trie", 0x20aaf35b90386d77ULL},
  };
  for (const ScanVariant& variant : ScanVariants()) {
    SCOPED_TRACE(variant.name);
    GraphDatabase db = ScanDatabase(variant.seed);
    for (int threads : {1, 3}) {
      FragmentIndexOptions options = ScanOptions(variant);
      options.num_threads = threads;
      auto index = FragmentIndex::Build(db, ScanFeatures(), options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      std::ostringstream bytes;
      ASSERT_TRUE(index.value().Save(bytes).ok());
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(Fnv1a64(bytes.str())));
      EXPECT_EQ(Fnv1a64(bytes.str()), expected.at(variant.name))
          << "threads=" << threads << " digest " << hex;
    }
  }
}

// A subset's embedding in host ids: the host vertex at each canonical
// vertex and the host edge at each code position.
using HostEmbedding = std::pair<std::vector<VertexId>, std::vector<EdgeId>>;

// The brute-force reference for one connected edge subset of `g`: its
// materialized fragment and every realization of the fragment's minimum
// DFS code, mapped back to host ids.
struct SubsetReference {
  Graph fragment;
  std::vector<VertexId> vertex_map;  // fragment vertex -> host vertex
  std::vector<CanonicalEmbedding> embeddings;  // over the fragment
  std::set<HostEmbedding> host_embeddings;
};

SubsetReference Reference(const Graph& g, const std::vector<EdgeId>& edges) {
  SubsetReference ref;
  ref.fragment = g.EdgeSubgraph(edges, &ref.vertex_map);
  auto form = MinDfsCode(ref.fragment);
  EXPECT_TRUE(form.ok());
  if (!form.ok()) return ref;
  ref.embeddings = std::move(form.value().embeddings);
  for (const CanonicalEmbedding& emb : ref.embeddings) {
    HostEmbedding host;
    for (VertexId v : emb.vertex_order) host.first.push_back(ref.vertex_map[v]);
    for (EdgeId e : emb.edge_order) host.second.push_back(edges[e]);
    ref.host_embeddings.insert(std::move(host));
  }
  return ref;
}

// Every connected subset of every graph, classified through one IndexScan
// shared across the database as a build scan does, agrees with the one-off
// path: its class is PrepareFragment's on the materialized fragment, and
// its map composed with each automorphism of its skeleton gives, as a set,
// exactly the embeddings a direct MinDfsCode over all embeddings finds,
// each with the reference sequence. The per-subset tallies reproduce the
// build's counters.
TEST(FragmentIndexScanTest, MemoMatchesPrepareAndMinDfsCodeOnEverySubset) {
  for (const ScanVariant& variant : ScanVariants()) {
    SCOPED_TRACE(variant.name);
    GraphDatabase db = ScanDatabase(variant.seed);
    auto built = FragmentIndex::Build(db, ScanFeatures(),
                                      ScanOptions(variant));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const FragmentIndex& index = built.value();
    IndexScan scan(index);
    FragmentIndexStats tally;
    size_t unindexed = 0;
    size_t embeddings = 0;
    std::vector<Label> labels;
    std::vector<double> weights;
    std::vector<Label> want_labels;
    std::vector<double> want_weights;
    for (const Graph& g : db.graphs()) {
      scan.Run(g, [&](const SkeletonSubset& subset, int class_id) {
        ++tally.num_subsets_enumerated;
        const SubsetReference ref = Reference(g, subset.edges);
        std::vector<VertexId> vertices(subset.vertices.begin(),
                                       subset.vertices.end());
        std::vector<VertexId> want_vertices = ref.vertex_map;
        std::sort(vertices.begin(), vertices.end());
        std::sort(want_vertices.begin(), want_vertices.end());
        EXPECT_EQ(vertices, want_vertices);
        Result<PreparedFragment> prepared =
            PrepareFragment(index, ref.fragment);
        if (class_id < 0) {
          EXPECT_EQ(prepared.status().code(), StatusCode::kNotFound);
          ++unindexed;
          return true;
        }
        EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
        if (!prepared.ok()) return false;
        EXPECT_EQ(class_id, prepared.value().class_id);

        const std::vector<CanonicalEmbedding>& automorphisms =
            scan.Automorphisms(subset.skeleton);
        EXPECT_EQ(automorphisms.size(), ref.embeddings.size());
        std::set<HostEmbedding> got;
        std::set<std::pair<std::vector<Label>, std::vector<double>>> distinct;
        for (const CanonicalEmbedding& automorphism : automorphisms) {
          HostEmbedding host;
          for (VertexId v : automorphism.vertex_order) {
            host.first.push_back(subset.vertices[v]);
          }
          for (EdgeId e : automorphism.edge_order) {
            host.second.push_back(subset.code_edges[e]);
          }
          got.insert(host);
          labels.clear();
          weights.clear();
          scan.AppendVectors(g, subset, automorphism, &labels, &weights);
          // The reference sequence of the same embedding, read off the
          // materialized fragment.
          CanonicalEmbedding local;
          for (VertexId v : host.first) {
            local.vertex_order.push_back(static_cast<VertexId>(
                std::find(ref.vertex_map.begin(), ref.vertex_map.end(), v) -
                ref.vertex_map.begin()));
          }
          for (EdgeId e : host.second) {
            local.edge_order.push_back(static_cast<EdgeId>(
                std::find(subset.edges.begin(), subset.edges.end(), e) -
                subset.edges.begin()));
          }
          ReferenceVectors(variant.spec, ref.fragment, local, &want_labels,
                           &want_weights);
          EXPECT_EQ(labels, want_labels);
          EXPECT_EQ(weights, want_weights);
          distinct.emplace(labels, weights);
        }
        EXPECT_EQ(got, ref.host_embeddings);
        ++tally.num_fragment_occurrences;
        tally.num_sequences_inserted += distinct.size();
        embeddings += automorphisms.size();
        return true;
      });
    }
    // Both branches of the classification were exercised, and symmetric
    // labels collapsed some automorphisms.
    EXPECT_GT(tally.num_fragment_occurrences, 0u);
    EXPECT_GT(unindexed, 0u);
    EXPECT_LT(tally.num_sequences_inserted, embeddings);

    const FragmentIndexStats& stats = index.stats();
    EXPECT_EQ(stats.num_subsets_enumerated, tally.num_subsets_enumerated);
    EXPECT_EQ(stats.num_fragment_occurrences, tally.num_fragment_occurrences);
    EXPECT_EQ(stats.num_sequences_inserted, tally.num_sequences_inserted);
  }
}

// The per-graph minimum distances within sigma of one prepared fragment.
std::map<int, double> MinDistances(const FragmentIndex& index,
                                   const PreparedFragment& fragment,
                                   double sigma) {
  std::map<int, double> hits;
  EXPECT_TRUE(index
                  .RangeQuery(fragment, sigma,
                              [&hits](int gid, double d) {
                                auto [it, fresh] = hits.emplace(gid, d);
                                if (!fresh) it->second = std::min(it->second, d);
                              })
                  .ok());
  return hits;
}

// Query enumeration classifies through the same scan, in enumeration
// order. Each fragment of `query` takes the class PrepareFragment gives
// the materialized subset and one of the subset's automorphic sequences
// (which one is the scan's choice), and so answers every range query as
// PrepareFragment's sequence does, because the index holds every
// automorphic sequence of each database fragment.
void ExpectQueryFragmentsMatchPrepare(const FragmentIndex& index,
                                      const Graph& query) {
  const FragmentIndexOptions& options = index.options();
  auto fragments = EnumerateIndexedQueryFragments(index, query);
  ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
  size_t next = 0;
  EnumerateConnectedEdgeSubgraphs(
      query, {options.min_fragment_edges, options.max_fragment_edges},
      [&](const std::vector<EdgeId>& subset) {
    const SubsetReference ref = Reference(query, subset);
    auto prepared = PrepareFragment(index, ref.fragment);
    if (!prepared.ok()) return true;
    std::vector<VertexId> vertices = ref.vertex_map;
    std::sort(vertices.begin(), vertices.end());
    EXPECT_LT(next, fragments.value().size());
    if (next >= fragments.value().size()) return false;
    const QueryFragment& got = fragments.value()[next++];
    EXPECT_EQ(got.prepared.class_id, prepared.value().class_id);
    EXPECT_EQ(got.prepared.num_edges, prepared.value().num_edges);
    EXPECT_EQ(got.vertices, vertices);
    bool automorphic = false;
    std::vector<Label> labels;
    std::vector<double> weights;
    for (const CanonicalEmbedding& emb : ref.embeddings) {
      ReferenceVectors(options.spec, ref.fragment, emb, &labels, &weights);
      automorphic = automorphic || (labels == got.prepared.labels &&
                                    weights == got.prepared.weights);
    }
    EXPECT_TRUE(automorphic);
    for (double sigma : {0.0, 1.0, 2.0, 3.0}) {
      EXPECT_EQ(MinDistances(index, got.prepared, sigma),
                MinDistances(index, prepared.value(), sigma))
          << "sigma " << sigma;
    }
    return true;
  });
  EXPECT_EQ(next, fragments.value().size());
}

TEST(FragmentIndexScanTest, QueryFragmentsMatchPrepare) {
  std::vector<ScanVariant> variants = ScanVariants();
  variants.push_back({"edge_linear_rtree", 14, DistanceSpec::EdgeLinear()});
  for (const ScanVariant& variant : variants) {
    SCOPED_TRACE(variant.name);
    GraphDatabase db = ScanDatabase(variant.seed);
    auto built = FragmentIndex::Build(db, ScanFeatures(),
                                      ScanOptions(variant));
    ASSERT_TRUE(built.ok());
    for (const Graph& query : db.graphs()) {
      ExpectQueryFragmentsMatchPrepare(built.value(), query);
    }
  }
}

// What a build over `db` must hold, recomputed subset by subset from the
// materialized fragments (PrepareFragment for the class, MinDfsCode over all
// embeddings for the sequences): each class's containing graphs and
// sequence count, the build counters, and every (sequence, graph) pair,
// which a sigma-0 range query must find.
void ExpectBuildMatchesReference(const FragmentIndex& index,
                                 const GraphDatabase& db) {
  const FragmentIndexOptions& options = index.options();
  FragmentIndexStats want;
  std::vector<std::set<int>> containing(index.num_classes());
  std::vector<size_t> sequences(index.num_classes());
  struct Entry {
    int class_id;
    std::vector<Label> labels;
    std::vector<double> weights;
    int gid;
    bool operator<(const Entry& o) const {
      return std::tie(class_id, labels, weights, gid) <
             std::tie(o.class_id, o.labels, o.weights, o.gid);
    }
  };
  std::set<Entry> entries;
  for (int gid = 0; gid < db.size(); ++gid) {
    const Graph& g = db.at(gid);
    EnumerateConnectedEdgeSubgraphs(
        g, {options.min_fragment_edges, options.max_fragment_edges},
        [&](const std::vector<EdgeId>& subset) {
      ++want.num_subsets_enumerated;
      const SubsetReference ref = Reference(g, subset);
      auto prepared = PrepareFragment(index, ref.fragment);
      if (!prepared.ok()) return true;
      const int class_id = prepared.value().class_id;
      ++want.num_fragment_occurrences;
      std::set<std::pair<std::vector<Label>, std::vector<double>>> distinct;
      for (const CanonicalEmbedding& emb : ref.embeddings) {
        Entry entry{class_id, {}, {}, gid};
        ReferenceVectors(options.spec, ref.fragment, emb, &entry.labels,
                         &entry.weights);
        distinct.emplace(entry.labels, entry.weights);
        entries.insert(std::move(entry));
      }
      want.num_sequences_inserted += distinct.size();
      sequences[class_id] += distinct.size();
      containing[class_id].insert(gid);
      return true;
    });
  }
  const FragmentIndexStats& stats = index.stats();
  EXPECT_EQ(stats.num_subsets_enumerated, want.num_subsets_enumerated);
  EXPECT_EQ(stats.num_fragment_occurrences, want.num_fragment_occurrences);
  EXPECT_EQ(stats.num_sequences_inserted, want.num_sequences_inserted);
  EXPECT_GT(want.num_fragment_occurrences, 0u);
  for (int c = 0; c < index.num_classes(); ++c) {
    SCOPED_TRACE("class " + std::to_string(c));
    EXPECT_EQ(index.class_at(c).containing_graphs(),
              std::vector<int>(containing[c].begin(), containing[c].end()));
    EXPECT_EQ(index.class_at(c).num_fragments(), sequences[c]);
  }
  for (const Entry& entry : entries) {
    PreparedFragment probe;
    probe.class_id = entry.class_id;
    probe.labels = entry.labels;
    probe.weights = entry.weights;
    const std::map<int, double> hits = MinDistances(index, probe, 0.0);
    auto hit = hits.find(entry.gid);
    EXPECT_TRUE(hit != hits.end() && hit->second == 0.0)
        << "class " << entry.class_id << " graph " << entry.gid;
  }
}

// A window above one edge: the scan still grows every subset from its
// one-edge prefix, but builds and decomposes only the window's subsets.
TEST(FragmentIndexScanTest, WindowsAboveOneEdgeMatchTheReference) {
  for (const ScanVariant& variant : ScanVariants()) {
    for (int min_edges : {2, 3}) {
      SCOPED_TRACE(std::string(variant.name) + " min_fragment_edges " +
                   std::to_string(min_edges));
      GraphDatabase db = ScanDatabase(variant.seed);
      FragmentIndexOptions options = ScanOptions(variant);
      options.min_fragment_edges = min_edges;
      auto built = FragmentIndex::Build(db, ScanFeatures(), options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ExpectBuildMatchesReference(built.value(), db);
      for (const Graph& query : db.graphs()) {
        ExpectQueryFragmentsMatchPrepare(built.value(), query);
      }
    }
  }
}

// Fragments of 16 and 17 edges: paths and cycles of 17 edges with
// varied labels and weights, indexed under the 16- and 17-edge path and
// the 17-cycle.
TEST(FragmentIndexScanTest, FragmentsOfSixteenEdgesAndMoreMatchTheReference) {
  constexpr int kEdges = 17;
  GraphDatabase db;
  for (bool cycle : {false, true}) {
    for (int shift : {0, 1}) {
      Graph g;
      const int n = cycle ? kEdges : kEdges + 1;
      for (int i = 0; i < n; ++i) g.AddVertex(1 + (i + shift) % 2, 0.5 * i);
      for (int i = 0; i < kEdges; ++i) {
        ASSERT_TRUE(
            g.AddEdge(i, (i + 1) % n, 1 + (i * (shift + 1)) % 3, 1.0 + i % 4)
                .ok());
      }
      db.Add(g);
    }
  }
  const std::vector<Graph> features = {PathGraph(16).Skeleton(),
                                       PathGraph(kEdges).Skeleton(),
                                       Cycle(kEdges).Skeleton()};
  for (const ScanVariant& variant : ScanVariants()) {
    SCOPED_TRACE(variant.name);
    FragmentIndexOptions options = ScanOptions(variant);
    options.max_fragment_edges = kEdges;
    auto built = FragmentIndex::Build(db, features, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built.value().num_classes(), 3);
    ExpectBuildMatchesReference(built.value(), db);
    for (const Graph& query : db.graphs()) {
      ExpectQueryFragmentsMatchPrepare(built.value(), query);
    }
  }
}

std::string SavedBytes(const FragmentIndex& index) {
  std::ostringstream bytes;
  EXPECT_TRUE(index.Save(bytes).ok());
  return bytes.str();
}

// Per query graph and indexed query fragment, the per-graph minimum
// distances within sigma.
std::vector<std::map<int, double>> RangeAnswers(const FragmentIndex& index,
                                                const GraphDatabase& queries,
                                                double sigma) {
  std::vector<std::map<int, double>> answers;
  for (const Graph& query : queries.graphs()) {
    auto fragments = EnumerateIndexedQueryFragments(index, query);
    EXPECT_TRUE(fragments.ok()) << fragments.status().ToString();
    if (!fragments.ok()) continue;
    for (const QueryFragment& fragment : fragments.value()) {
      std::map<int, double>& hits = answers.emplace_back();
      auto keep_min = [&hits](int gid, double d) {
        auto [it, fresh] = hits.emplace(gid, d);
        if (!fresh) it->second = std::min(it->second, d);
      };
      EXPECT_TRUE(index.RangeQuery(fragment.prepared, sigma, keep_min).ok());
    }
  }
  return answers;
}

// Clone is a faithful, independent copy over both backends, of a source
// holding tombstones and of one that was compacted: the clone saves the
// source's bytes and answers its range queries, and adds, removes and a
// compaction on the clone leave the source's bytes and answers unchanged.
TEST(FragmentIndexScanTest, CloneIsFaithfulAndIndependent) {
  constexpr double kSigma = 2.0;
  for (const ScanVariant& variant : ScanVariants()) {
    for (bool compacted : {false, true}) {
      SCOPED_TRACE(std::string(variant.name) +
                   (compacted ? " compacted" : " tombstoned"));
      GraphDatabase db = ScanDatabase(variant.seed);
      auto built = FragmentIndex::Build(db, ScanFeatures(),
                                        ScanOptions(variant));
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      FragmentIndex& source = built.value();
      ASSERT_TRUE(source.RemoveGraph(1).ok());
      ASSERT_TRUE(source.RemoveGraph(4).ok());
      if (compacted) {
        source.Compact();
        ASSERT_EQ(source.compaction_epoch(), 1u);
        ASSERT_TRUE(source.tombstones().empty());
      }
      const std::string source_bytes = SavedBytes(source);
      const std::vector<std::map<int, double>> source_answers =
          RangeAnswers(source, db, kSigma);
      ASSERT_FALSE(source_answers.empty());

      auto clone = source.Clone();
      ASSERT_TRUE(clone.ok()) << clone.status().ToString();
      // Byte comparisons use EXPECT_TRUE: a failure would print megabytes.
      EXPECT_TRUE(SavedBytes(clone.value()) == source_bytes);
      EXPECT_EQ(RangeAnswers(clone.value(), db, kSigma), source_answers);
      EXPECT_EQ(clone.value().options().num_threads,
                source.options().num_threads);
      EXPECT_EQ(clone.value().stats().build_seconds,
                source.stats().build_seconds);

      ASSERT_TRUE(clone.value().AddGraph(db.at(2)).ok());
      ASSERT_TRUE(clone.value().AddGraph(db.at(0)).ok());
      ASSERT_TRUE(clone.value().RemoveGraph(3).ok());
      EXPECT_TRUE(SavedBytes(clone.value()) != source_bytes);
      EXPECT_TRUE(SavedBytes(source) == source_bytes) << "after add/remove";
      clone.value().Compact();
      EXPECT_TRUE(SavedBytes(source) == source_bytes) << "after Compact";
      EXPECT_EQ(RangeAnswers(source, db, kSigma), source_answers);
    }
  }
}

}  // namespace
}  // namespace pis
