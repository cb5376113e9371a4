// Figure 11: "Cutoff Value Sensitivity" — reduction ratio for Q16 at σ = 2
// with the selectivity cutoff λσ, λ ∈ {0.5, 1, 2}. The paper's finding:
// λ < 1 hurts pruning; λ ≥ 1 is flat (λ=1 and λ=2 curves coincide).
#include <cstdio>

#include "bench_common.h"

#include "util/string_util.h"

using namespace pis;
using namespace pis::bench;

int main(int argc, char** argv) {
  WorkloadConfig config;
  int query_edges = 16;
  double sigma = 2.0;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
  flags.AddDouble("sigma", &sigma, "distance threshold");
  flags.AddString("json_out", &json_out,
                  "write machine-readable results to this JSON file");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  GraphDatabase db = MakeDatabase(config);
  auto features = MineFeatures(db, config);
  if (!features.ok()) {
    std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
    return 1;
  }
  auto index = BuildIndex(db, features.value(), config);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto queries = SampleQueries(db, query_edges, config);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  std::vector<SeriesSpec> series;
  for (double lambda : {0.5, 1.0, 2.0}) {
    SeriesSpec spec;
    spec.name = StrFormat("PIS l=%g", lambda);
    spec.options.sigma = sigma;
    spec.options.lambda = lambda;
    series.push_back(spec);
  }
  auto experiment =
      RunFilterExperiment(db, index.value(), series, queries.value());
  if (!experiment.ok()) {
    std::fprintf(stderr, "%s\n", experiment.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> names;
  for (const SeriesSpec& spec : series) names.push_back(spec.name);
  const std::vector<std::vector<double>> ratios =
      ReductionRatios(experiment.value());
  ReportBucketed(StrFormat("Figure 11: cutoff sensitivity, sigma=%g", sigma),
                 config, experiment.value().yt, names, ratios);
  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "fig11_cutoff");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("sigma", sigma);
    cfg.Set("queries", static_cast<uint64_t>(queries.value().size()));
    report.Set("config", std::move(cfg));
    report.Set("reduction",
               BucketTableJson(config, experiment.value().yt, names, ratios));
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
