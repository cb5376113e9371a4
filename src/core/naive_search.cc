#include "core/naive_search.h"

#include <numeric>

namespace pis {

SearchResult NaiveSearch(const GraphDatabase& db, const Graph& query,
                         const DistanceSpec& spec, double sigma) {
  SearchResult result;
  result.candidates.resize(db.size());
  std::iota(result.candidates.begin(), result.candidates.end(), 0);
  result.stats.candidates_after_partition = result.candidates.size();
  result.stats.candidates_final = result.candidates.size();
  VerifyResult verified =
      VerifyCandidates(db, query, result.candidates, spec, sigma);
  result.answers = std::move(verified.answers);
  result.stats.answers = result.answers.size();
  result.stats.verify_seconds = verified.seconds;
  return result;
}

}  // namespace pis
