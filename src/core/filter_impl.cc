#include "core/filter_impl.h"

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/timer.h"

namespace pis::internal {

BatchSearchResult RunSearchBatch(
    size_t num_queries, int num_threads,
    const std::function<Result<SearchResult>(size_t)>& run_query) {
  Timer timer;
  BatchSearchResult batch;
  batch.results.assign(num_queries,
                       Result<SearchResult>(Status::Internal("query not run")));
  ParallelFor(num_queries, num_threads, [&](size_t qi) {
    // ParallelFor requires that exceptions never escape the body; Search is
    // Status-based, so anything thrown below it is a defect we surface as a
    // per-query internal error rather than a process abort.
    try {
      batch.results[qi] = run_query(qi);
    } catch (const std::exception& e) {
      batch.results[qi] = Status::Internal(std::string("uncaught: ") + e.what());
    } catch (...) {
      batch.results[qi] = Status::Internal("uncaught non-standard exception");
    }
  });
  for (const Result<SearchResult>& r : batch.results) {
    if (r.ok()) {
      ++batch.succeeded;
      batch.total_stats.Accumulate(r.value().stats);
    } else {
      ++batch.failed;
    }
  }
  batch.wall_seconds = timer.Seconds();
  return batch;
}

}  // namespace pis::internal
