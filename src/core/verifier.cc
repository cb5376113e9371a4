#include "core/verifier.h"

#include "distance/superimposed.h"
#include "util/timer.h"

namespace pis {

VerifyResult VerifyCandidates(const GraphDatabase& db, const Graph& query,
                              const std::vector<int>& candidates,
                              const DistanceSpec& spec, double sigma) {
  Timer timer;
  VerifyResult result;
  auto model = spec.MakeCostModel();
  for (int id : candidates) {
    if (WithinSuperimposedDistance(query, db.at(id), *model, sigma)) {
      result.answers.push_back(id);
    }
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pis
