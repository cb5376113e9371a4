// Figure 12: "Performance vs. Fragment Size" — reduction ratio for Q16 with
// the maximum indexed fragment size swept over 4, 5, 6 edges (one index
// build per size). The paper's finding: larger fragments prune better.
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
  auto queries = SampleQueries(db, query_edges, config);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  // One index per maximum fragment size. The Yt bucketing uses the largest
  // index (it has the tightest structure filter, matching the paper's
  // grouping by the gIndex-based topoPrune).
  std::vector<int> sizes = {4, 5, 6};
  std::vector<ShardedFragmentIndex> indexes;
  for (int size : sizes) {
    WorkloadConfig sized = config;
    sized.max_fragment_edges = size;
    auto features = MineFeatures(db, sized);
    if (!features.ok()) {
      std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
      return 1;
    }
    auto index = BuildIndex(db, features.value(), sized);
    if (!index.ok()) {
      std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
      return 1;
    }
    indexes.push_back(index.MoveValue());
  }

  std::vector<SeriesSpec> series;
  for (size_t i = 0; i < sizes.size(); ++i) {
    SeriesSpec spec;
    spec.name = StrFormat("size=%d", sizes[i]);
    spec.options.sigma = sigma;
    spec.options.max_query_fragments = config.max_query_fragments;
    spec.index = &indexes[i];
    series.push_back(spec);
  }
  auto experiment =
      RunFilterExperiment(db, indexes.back(), series, queries.value());
  if (!experiment.ok()) {
    std::fprintf(stderr, "%s\n", experiment.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> names;
  for (const SeriesSpec& spec : series) names.push_back(spec.name);
  const std::vector<std::vector<double>> ratios =
      ReductionRatios(experiment.value());
  ReportBucketed(
      StrFormat("Figure 12: reduction vs max fragment size, sigma=%g", sigma),
      config, experiment.value().yt, names, ratios);
  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", "fig12_fragment_size");
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("sigma", sigma);
    cfg.Set("queries", static_cast<uint64_t>(queries.value().size()));
    JsonValue size_list = JsonValue::Array();
    for (int size : sizes) size_list.Push(size);
    cfg.Set("fragment_sizes", std::move(size_list));
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
