#include "core/topk.h"

#include <algorithm>
#include <unordered_map>

#include "distance/superimposed.h"

namespace pis {

Result<TopKResult> TopKSearch(const GraphDatabase& db,
                              const ShardedFragmentIndex& index,
                              const Graph& query, const TopKOptions& options) {
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (options.growth <= 1.0) {
    return Status::InvalidArgument("growth must be > 1");
  }
  // Degenerate radii either spin the σ-expansion forever (σ stuck at 0 when
  // the first step is not positive) or report answers beyond the hard stop
  // (max_sigma below the starting radius); reject them up front.
  if (options.initial_sigma < 0) {
    return Status::InvalidArgument("initial_sigma must be >= 0");
  }
  if (options.first_step <= 0) {
    return Status::InvalidArgument("first_step must be > 0");
  }
  if (options.max_sigma < options.initial_sigma) {
    return Status::InvalidArgument("max_sigma must be >= initial_sigma");
  }
  TopKResult out;
  auto model = index.options().spec.MakeCostModel();
  // gid -> exact distance at the radius it was verified under; infinity
  // means "verified, beyond that radius". Memoizing the radius avoids
  // re-verifying graphs whose candidate status did not change.
  std::unordered_map<int, double> exact;
  std::unordered_map<int, double> verified_at;

  double sigma = options.initial_sigma;
  while (true) {
    ++out.rounds;
    out.final_sigma = sigma;
    PisOptions pis_options = options.pis;
    pis_options.sigma = sigma;
    PisEngine engine(&db, &index, pis_options);
    PIS_ASSIGN_OR_RETURN(FilterResult filtered, engine.Filter(query));
    for (int gid : filtered.candidates) {
      auto it = verified_at.find(gid);
      if (it != verified_at.end()) {
        // Already verified. A finite exact distance is final; an infinite
        // one only needs re-verification if the radius grew past it.
        if (exact[gid] != kInfiniteDistance || it->second >= sigma) continue;
      }
      double d = MinSuperimposedDistance(query, db.at(gid), *model, sigma);
      ++out.verifications;
      exact[gid] = d;
      verified_at[gid] = sigma;
    }
    // Collect answers within the current radius.
    std::vector<std::pair<int, double>> hits;
    for (const auto& [gid, d] : exact) {
      if (d <= sigma) hits.emplace_back(gid, d);
    }
    if (static_cast<int>(hits.size()) >= options.k || sigma >= options.max_sigma) {
      std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second < b.second;
        return a.first < b.first;
      });
      if (static_cast<int>(hits.size()) > options.k) {
        hits.resize(options.k);
      }
      out.results = std::move(hits);
      return out;
    }
    sigma = sigma == 0.0 ? options.first_step : sigma * options.growth;
    sigma = std::min(sigma, options.max_sigma);
  }
}

}  // namespace pis
