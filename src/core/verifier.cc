#include "core/verifier.h"

#include <algorithm>

#include "distance/superimposed.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pis {

VerifyResult VerifyCandidates(const GraphDatabase& db, const Graph& query,
                              const std::vector<int>& candidates,
                              const DistanceSpec& spec, double sigma,
                              int num_threads) {
  Timer timer;
  VerifyResult result;
  // One byte per candidate, not vector<bool>: parallel tasks write
  // neighbouring entries.
  std::vector<char> within(candidates.size(), 0);
  if (num_threads <= 1) {
    auto model = spec.MakeCostModel();
    for (size_t i = 0; i < candidates.size(); ++i) {
      within[i] =
          WithinSuperimposedDistance(query, db.at(candidates[i]), *model, sigma);
    }
  } else {
    // One cost model per task invocation: the models are stateless but
    // cheap, and per-call construction avoids shared mutable state.
    ParallelFor(candidates.size(), num_threads, [&](size_t i) {
      auto model = spec.MakeCostModel();
      within[i] =
          WithinSuperimposedDistance(query, db.at(candidates[i]), *model, sigma);
    });
  }
  // Candidates arrive in ascending id order from the filters; preserve it.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (within[i]) result.answers.push_back(candidates[i]);
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pis
