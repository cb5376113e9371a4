// Figure 8: "Structure Query with 16 edges" — average number of candidate
// graphs per Yt bucket for topoPrune vs PIS at σ = 4, 2, 1.
// Also reports the §7 timing claim (filtering ≪ verification).
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

using namespace pis;
using namespace pis::bench;

int main(int argc, char** argv) {
  WorkloadConfig config;
  int query_edges = 16;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
  flags.AddString("json_out", &json_out,
                  "write machine-readable results to this JSON file");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;  // --help
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
  for (double sigma : {4.0, 2.0, 1.0}) {
    SeriesSpec spec;
    spec.name = "PIS s=" + std::to_string(static_cast<int>(sigma));
    spec.options.sigma = sigma;
    series.push_back(spec);
  }
  auto experiment =
      RunFilterExperiment(db, index.value(), series, queries.value(), true);
  if (!experiment.ok()) {
    std::fprintf(stderr, "%s\n", experiment.status().ToString().c_str());
    return 1;
  }
  const FilterExperiment& ex = experiment.value();

  std::vector<std::string> names = {"topoPrune"};
  std::vector<std::vector<double>> values;
  values.emplace_back(ex.yt.begin(), ex.yt.end());
  for (size_t si = 0; si < series.size(); ++si) {
    names.push_back(series[si].name);
    values.emplace_back(ex.yp[si].begin(), ex.yp[si].end());
  }
  ReportBucketed(
      "Figure 8: avg #candidate graphs, Q" + std::to_string(query_edges), config,
      ex.yt, names, values);

  std::printf("\nTiming (paper §7: pruning ≪ verification):\n");
  for (size_t si = 0; si < series.size(); ++si) {
    std::printf("  %-10s avg PIS filter time per query: %8.2f ms\n",
                series[si].name.c_str(), ex.filter_seconds[si] * 1e3);
  }
  std::printf("  est. verification cost per candidate:  %8.3f ms\n",
              ex.verify_seconds_per_candidate * 1e3);

  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "fig08_candidates");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("queries", static_cast<uint64_t>(queries.value().size()));
    report.Set("config", std::move(cfg));
    report.Set("candidates", BucketTableJson(config, ex.yt, names, values));
    JsonValue timing = JsonValue::Object();
    for (size_t si = 0; si < series.size(); ++si) {
      timing.Set(series[si].name + " filter_ms_per_query",
                 ex.filter_seconds[si] * 1e3);
    }
    timing.Set("verify_ms_per_candidate",
               ex.verify_seconds_per_candidate * 1e3);
    report.Set("timing", std::move(timing));
    Status written = WriteJsonFile(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
