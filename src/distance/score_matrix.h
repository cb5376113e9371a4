// Mutation score matrices: the per-label-pair cost tables of the paper's
// Mutation Distance (MD). Entries default to 0 on the diagonal and to a
// configurable mismatch cost elsewhere; individual pairs can be overridden
// (e.g. chemically-informed bond substitution costs).
#ifndef PIS_DISTANCE_SCORE_MATRIX_H_
#define PIS_DISTANCE_SCORE_MATRIX_H_

#include <cstdint>
#include <unordered_map>

#include "graph/graph.h"
#include "util/serde.h"
#include "util/status.h"

namespace pis {

/// \brief Symmetric non-negative label-mutation cost table.
class ScoreMatrix {
 public:
  /// Unit matrix: cost 1 for any mismatch (Hamming). This is the "edge
  /// mutation distance" of the paper's evaluation.
  static ScoreMatrix Unit() { return ScoreMatrix(1.0); }
  /// Zero matrix: all mutations free. Used to ignore one label dimension
  /// (the evaluation ignores vertex labels).
  static ScoreMatrix Zero() { return ScoreMatrix(0.0); }

  /// `default_mismatch` must be a valid cost (see Set).
  explicit ScoreMatrix(double default_mismatch = 1.0)
      : default_mismatch_(default_mismatch) {}

  /// Overrides the cost of mutating `a` into `b` (stored symmetrically).
  /// Negative and NaN costs are rejected: the partition lower bound (Eq. 2)
  /// requires non-negative terms, and a NaN distance fails every d <= σ
  /// test. +∞ is legal: a forbidden mutation, which no embedding within a
  /// finite σ can use.
  Status Set(Label a, Label b, double cost);

  /// Mutation cost between two labels; 0 when equal.
  double Cost(Label a, Label b) const;

  double default_mismatch() const { return default_mismatch_; }

  /// The cheapest cost any two different labels can have: the lower of the
  /// default mismatch and every override between different labels. A
  /// lower bound on Cost(a, b) for every a != b.
  double MinMismatch() const;

  /// True when every mutation costs 0 (the matrix can never contribute to a
  /// distance). The index uses this to drop cost-free label positions from
  /// its sequences.
  bool IsZero() const;

  /// Binary persistence (index save/load). Deserialize rejects a default
  /// mismatch or an override that Set would reject.
  void Serialize(BinaryWriter* writer) const;
  static Result<ScoreMatrix> Deserialize(BinaryReader* reader);

 private:
  /// Non-negative and not NaN; +∞ included.
  static bool ValidCost(double cost) { return cost >= 0; }

  static uint64_t PairKey(Label a, Label b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

  double default_mismatch_;
  std::unordered_map<uint64_t, double> overrides_;
};

}  // namespace pis

#endif  // PIS_DISTANCE_SCORE_MATRIX_H_
