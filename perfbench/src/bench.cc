#include "bench.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/generator.h"
#include "graph/query_sampler.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"

namespace pisbench {

namespace {

// Enough fresh graphs and starting gids for a 60 s open-loop writer plus
// the closed-loop write tail.
constexpr int kPoolGraphs = 1000;

std::vector<pis::Graph> SampleQueries(pis::QuerySampler* sampler, int edges) {
  pis::Result<std::vector<pis::Graph>> set =
      sampler->SampleSet(edges, kQueriesPerSet);
  PIS_CHECK(set.ok()) << set.status().ToString();
  return set.MoveValue();
}

}  // namespace

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  pis::MoleculeGeneratorOptions gen;
  gen.seed = seed;
  in.db = pis::MoleculeGenerator(gen).Generate(kDbGraphs);
  gen.seed = seed + 0x9e3779b97f4a7c15ULL;
  in.pool = pis::MoleculeGenerator(gen).Generate(kPoolGraphs);

  // Queries are unlabeled-vertex subgraphs of database graphs, as in the
  // paper's experiments.
  pis::QuerySamplerOptions sample;
  sample.seed = seed * 31 + 7;
  sample.strip_vertex_labels = true;
  pis::QuerySampler sampler(&in.db, sample);
  in.big_queries = SampleQueries(&sampler, kBigQueryEdges);
  in.small_queries = SampleQueries(&sampler, kSmallQueryEdges);

  in.removal_order.resize(kDbGraphs);
  std::iota(in.removal_order.begin(), in.removal_order.end(), 0);
  pis::Rng rng(seed * 131 + 3);
  for (size_t i = in.removal_order.size(); i > 1; --i) {
    std::swap(in.removal_order[i - 1], in.removal_order[rng.UniformIndex(i)]);
  }
  return in;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

LatencySummary Summarize(const std::vector<Sample>& samples,
                         Clock::time_point start) {
  LatencySummary summary;
  summary.samples = samples.size();
  if (samples.empty()) return summary;
  std::vector<double> ms;
  Clock::time_point last = start;
  for (const Sample& s : samples) {
    ms.push_back(s.ms);
    last = std::max(last, s.done);
  }
  summary.p50_ms = Percentile(ms, 0.5);
  summary.p95_ms = Percentile(ms, 0.95);
  const double seconds = MsBetween(start, last) / 1e3;
  summary.per_second = seconds > 0 ? samples.size() / seconds : 0;
  return summary;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

std::string MetricSet::ToJson() const {
  pis::JsonValue out = pis::JsonValue::Object();
  for (const auto& [name, entry] : values_) {
    pis::JsonValue metric = pis::JsonValue::Object();
    metric.Set("value", entry.first);
    metric.Set("unit", entry.second);
    out.Set(name, std::move(metric));
  }
  return out.Serialize();
}

}  // namespace pisbench
