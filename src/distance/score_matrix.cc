#include "distance/score_matrix.h"

#include <algorithm>

namespace pis {

Status ScoreMatrix::Set(Label a, Label b, double cost) {
  if (!ValidCost(cost)) {
    return Status::InvalidArgument(
        "mutation costs must be non-negative numbers");
  }
  overrides_[PairKey(a, b)] = cost;
  return Status::OK();
}

bool ScoreMatrix::IsZero() const {
  if (default_mismatch_ != 0) return false;
  for (const auto& [key, cost] : overrides_) {
    if (cost != 0) return false;
  }
  return true;
}

double ScoreMatrix::MinMismatch() const {
  double lowest = default_mismatch_;
  for (const auto& [key, cost] : overrides_) {
    // An override of a label with itself never applies: Cost(a, a) is 0.
    if ((key >> 32) == (key & 0xffffffffu)) continue;
    lowest = std::min(lowest, cost);
  }
  return lowest;
}

double ScoreMatrix::Cost(Label a, Label b) const {
  if (a == b) return 0.0;
  auto it = overrides_.find(PairKey(a, b));
  if (it != overrides_.end()) return it->second;
  return default_mismatch_;
}

void ScoreMatrix::Serialize(BinaryWriter* writer) const {
  writer->F64(default_mismatch_);
  writer->U64(overrides_.size());
  for (const auto& [key, cost] : overrides_) {
    writer->U64(key);
    writer->F64(cost);
  }
}

Result<ScoreMatrix> ScoreMatrix::Deserialize(BinaryReader* reader) {
  ScoreMatrix m(reader->F64());
  uint64_t n = reader->U64();
  PIS_RETURN_NOT_OK(reader->Check("score matrix header"));
  if (!ValidCost(m.default_mismatch_)) {
    return Status::ParseError("invalid score matrix default mismatch");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = reader->U64();
    double cost = reader->F64();
    PIS_RETURN_NOT_OK(reader->Check("score matrix entry"));
    if (!ValidCost(cost)) return Status::ParseError("invalid score matrix entry");
    m.overrides_[key] = cost;
  }
  return m;
}

}  // namespace pis
