// Synthetic dataset generators.
//
// MoleculeGenerator emulates the NCI AIDS antiviral screen compounds used in
// the paper's evaluation, which this repository does not ship: it
// matches their published statistics instead — carbon-dominated atoms,
// ring-and-chain topology, bond-type edge labels, sizes averaging ~25
// vertices / ~27 edges with a heavy tail. RandomGraphGenerator produces
// arbitrary connected labeled graphs for tests and property sweeps.
#ifndef PIS_GRAPH_GENERATOR_H_
#define PIS_GRAPH_GENERATOR_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/label_map.h"
#include "util/random.h"

namespace pis {

/// Tuning knobs for the molecule generator. Defaults reproduce the paper's
/// dataset statistics.
struct MoleculeGeneratorOptions {
  uint64_t seed = 42;
  int min_vertices = 8;
  double mean_vertices = 25.0;
  int max_vertices = 214;
  /// Ring size distribution: weights for sizes 3,4,5,6,7. Six-membered
  /// rings dominate real compounds; the rare small/large rings create the
  /// selective skeletons the paper's Yt buckets depend on.
  std::vector<double> ring_size_weights = {0.03, 0.05, 0.22, 0.60, 0.10};
  /// Probability a 6-ring is aromatic (all bonds labeled aromatic).
  double aromatic_prob = 0.55;
  /// Probability that a growth step fuses a ring on an existing edge.
  double fuse_prob = 0.30;
  /// Probability that a growth step attaches a ring at a single vertex.
  double spiro_prob = 0.15;
  /// Remaining probability attaches a chain.
  /// Fraction of atoms that are carbon; the rest are drawn from N/O/S/....
  double carbon_frac = 0.75;
  /// Probability a non-ring bond is a double bond.
  double double_bond_prob = 0.10;
  /// Probability a non-ring bond is a triple bond.
  double triple_bond_prob = 0.02;
  /// Also assign numeric weights (pseudo bond lengths) for linear-distance
  /// experiments.
  bool assign_weights = true;
};

/// \brief Seeded generator of molecule-like labeled graphs.
///
/// Every produced graph is connected and simple. The vocabulary is the
/// default chemical vocabulary (see MakeDefaultChemicalVocabulary).
class MoleculeGenerator {
 public:
  explicit MoleculeGenerator(const MoleculeGeneratorOptions& options = {});

  /// Generates the next molecule.
  Graph Next();

  /// Generates a database of `n` molecules.
  GraphDatabase Generate(int n);

  const ChemicalVocabulary& vocabulary() const { return vocab_; }

 private:
  Label RandomAtom();
  Label ChainBond();
  double BondWeight(Label bond);
  /// Appends a fresh ring; `attach_edge`/`attach_vertex` select fusion mode.
  void AddRing(Graph* g, EdgeId fuse_edge, VertexId spiro_vertex);
  void AddChain(Graph* g, VertexId from);

  MoleculeGeneratorOptions options_;
  ChemicalVocabulary vocab_;
  Rng rng_;
  Label carbon_, nitrogen_, oxygen_, sulfur_;
  Label single_, double_, triple_, aromatic_;
};

/// Options for uniform random connected graphs (test workloads).
struct RandomGraphOptions {
  int num_vertices = 10;
  int num_edges = 12;  // clamped to [n-1, n(n-1)/2]
  int vertex_alphabet = 3;
  int edge_alphabet = 3;
  double max_weight = 10.0;
};

/// Generates a connected simple graph: a random spanning tree plus random
/// extra edges, with labels drawn uniformly from 1..alphabet.
Graph GenerateRandomConnectedGraph(const RandomGraphOptions& options, Rng* rng);

}  // namespace pis

#endif  // PIS_GRAPH_GENERATOR_H_
