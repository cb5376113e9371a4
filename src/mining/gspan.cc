#include "mining/gspan.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <tuple>

#include "index/skeleton_table.h"
#include "util/parallel.h"

namespace pis {

namespace {

// Database graphs per scan segment. Fixed and small, so a 1000-graph
// database splits into enough segments to keep every worker busy under
// dynamic scheduling.
constexpr int kSegmentGraphs = 16;

// gSpan's per-entry tuple order, by which it visits a code's children.
struct DfsEdgeLess {
  bool operator()(const DfsEdge& a, const DfsEdge& b) const {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  }
};

// gSpan's depth-first report order: codes compare entry by entry, and a
// prefix comes before its extensions.
struct ReportOrder {
  bool operator()(const DfsCode& a, const DfsCode& b) const {
    return std::lexicographical_compare(a.edges().begin(), a.edges().end(),
                                        b.edges().begin(), b.edges().end(),
                                        DfsEdgeLess());
  }
};

}  // namespace

Result<std::vector<Pattern>> MineFrequentSubgraphs(const GraphDatabase& db,
                                                   const GspanOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (options.max_edges < 1) {
    return Status::InvalidArgument("max_edges must be >= 1");
  }
  // Each worker takes the next segment of kSegmentGraphs graphs until none
  // is left, scanning them through its own front of the shared table and
  // keeping each graph's distinct skeletons in the order first met.
  const int num_graphs = db.size();
  const int num_segments = (num_graphs + kSegmentGraphs - 1) / kSegmentGraphs;
  const int workers = std::max(1, std::min(options.num_threads, num_segments));
  SkeletonTable table;
  std::vector<std::vector<int>> skeletons_of(num_graphs);
  std::atomic<int> next_segment{0};
  ParallelFor(workers, workers, [&](size_t) {
    SkeletonScan scan(&table);
    // last_seen[id] == stamp iff skeleton id was met in the current graph.
    std::vector<uint64_t> last_seen;
    uint64_t stamp = 0;
    for (int k; (k = next_segment.fetch_add(1)) < num_segments;) {
      const int end = std::min(num_graphs, (k + 1) * kSegmentGraphs);
      for (int gid = k * kSegmentGraphs; gid < end; ++gid) {
        ++stamp;
        std::vector<int>& ids = skeletons_of[gid];
        scan.Run(db.at(gid), {1, options.max_edges},
                 [&](const SkeletonSubset& subset) {
          const int id = subset.skeleton;
          if (static_cast<size_t>(id) >= last_seen.size()) {
            last_seen.resize(id + 1, 0);
          }
          if (last_seen[id] != stamp) {
            last_seen[id] = stamp;
            ids.push_back(id);
          }
          return true;
        });
      }
    }
  });
  // Support sets, ascending: graphs are visited in gid order.
  std::vector<std::vector<int>> support(table.num_skeletons());
  for (int gid = 0; gid < num_graphs; ++gid) {
    for (int id : skeletons_of[gid]) support[id].push_back(gid);
  }
  // Skeleton ids in gSpan's report order.
  std::vector<int> report(table.num_skeletons());
  std::iota(report.begin(), report.end(), 0);
  std::sort(report.begin(), report.end(), [&](int a, int b) {
    return ReportOrder()(table.skeleton(a).code, table.skeleton(b).code);
  });
  std::vector<Pattern> patterns;
  for (int id : report) {
    const Skeleton& skeleton = table.skeleton(id);
    if (static_cast<int>(support[id].size()) < options.min_support ||
        static_cast<int>(skeleton.code.size()) < options.min_edges) {
      continue;
    }
    if (options.max_patterns > 0 && patterns.size() >= options.max_patterns) {
      break;
    }
    Pattern pattern;
    pattern.code = skeleton.code;
    pattern.graph = skeleton.graph;
    pattern.support_set = std::move(support[id]);
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

}  // namespace pis
