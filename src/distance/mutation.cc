#include "distance/mutation.h"

namespace pis {

MutationCostModel EdgeMutationModel() {
  return MutationCostModel(ScoreMatrix::Zero(), ScoreMatrix::Unit());
}

MutationCostModel UnitMutationModel() {
  return MutationCostModel(ScoreMatrix::Unit(), ScoreMatrix::Unit());
}

}  // namespace pis
