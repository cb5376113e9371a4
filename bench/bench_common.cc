#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace pis::bench {

void WorkloadConfig::Register(FlagSet* flags) {
  flags->AddInt("db_size", &db_size, "number of graphs in the database");
  flags->AddInt64("db_seed", reinterpret_cast<int64_t*>(&db_seed),
                  "dataset generator seed");
  flags->AddInt("queries_per_set", &queries_per_set, "queries per query set");
  flags->AddInt64("query_seed", reinterpret_cast<int64_t*>(&query_seed),
                  "query sampler seed");
  flags->AddDouble("feature_min_support", &feature_min_support,
                   "gSpan relative min support for skeleton features");
  flags->AddDouble("feature_gamma", &feature_gamma,
                   "gIndex discriminative ratio");
  flags->AddInt("min_fragment_edges", &min_fragment_edges,
                "smallest indexed fragment size");
  flags->AddInt("max_fragment_edges", &max_fragment_edges,
                "largest indexed fragment size");
  flags->AddInt("max_query_fragments", &max_query_fragments,
                "cap on enumerated query fragments (0 = all)");
  flags->AddInt("threads", &threads,
                "mining and index build threads (0 = all cores)");
  flags->AddBool("verbose", &verbose, "log progress");
}

GraphDatabase MakeDatabase(const WorkloadConfig& config) {
  MoleculeGeneratorOptions options;
  options.seed = config.db_seed;
  MoleculeGenerator gen(options);
  Timer timer;
  GraphDatabase db = gen.Generate(config.db_size);
  if (config.verbose) {
    PIS_LOG(Info) << "generated " << db.size() << " graphs (avg "
                  << db.AverageVertices() << " vertices / " << db.AverageEdges()
                  << " edges, max " << db.MaxVertices() << "/" << db.MaxEdges()
                  << ") in " << timer.Seconds() << "s";
  }
  return db;
}

Result<std::vector<Graph>> MineFeatures(const GraphDatabase& db,
                                        const WorkloadConfig& config) {
  // Features are bare structures (paper §4 step 1); gSpan reads no labels.
  GspanOptions mine;
  mine.min_support = std::max(
      1, static_cast<int>(std::lround(config.feature_min_support * db.size())));
  mine.min_edges = 1;
  mine.max_edges = config.max_fragment_edges;
  mine.num_threads = config.threads > 0 ? config.threads : HardwareThreads();
  Timer timer;
  PIS_ASSIGN_OR_RETURN(std::vector<Pattern> patterns,
                       MineFrequentSubgraphs(db, mine));

  FeatureSelectorOptions select;
  select.gamma = config.feature_gamma;
  PIS_ASSIGN_OR_RETURN(std::vector<size_t> selected,
                       SelectDiscriminativeFeatures(patterns, db.size(), select));
  std::vector<Graph> features;
  features.reserve(selected.size());
  for (size_t idx : selected) features.push_back(patterns[idx].graph);
  if (config.verbose) {
    PIS_LOG(Info) << "mined " << patterns.size() << " frequent skeletons, kept "
                  << features.size() << " discriminative features in "
                  << timer.Seconds() << "s";
  }
  return features;
}

Result<ShardedFragmentIndex> BuildIndex(const GraphDatabase& db,
                                        const std::vector<Graph>& features,
                                        const WorkloadConfig& config) {
  FragmentIndexOptions options;
  options.min_fragment_edges = config.min_fragment_edges;
  options.max_fragment_edges = config.max_fragment_edges;
  options.spec = DistanceSpec::EdgeMutation();
  options.num_threads = config.threads > 0 ? config.threads : HardwareThreads();
  PIS_ASSIGN_OR_RETURN(FragmentIndex index,
                       FragmentIndex::Build(db, features, options));
  if (config.verbose) {
    const FragmentIndexStats& s = index.stats();
    PIS_LOG(Info) << "index: " << s.num_classes << " classes, "
                  << s.num_fragment_occurrences << " fragment occurrences, "
                  << s.num_sequences_inserted << " sequences, built in "
                  << s.build_seconds << "s";
  }
  return ShardedFragmentIndex::FromFragmentIndex(std::move(index));
}

Result<std::vector<Graph>> SampleQueries(const GraphDatabase& db, int num_edges,
                                         const WorkloadConfig& config) {
  QuerySamplerOptions options;
  options.seed = config.query_seed;
  options.strip_vertex_labels = true;
  QuerySampler sampler(&db, options);
  return sampler.SampleSet(num_edges, config.queries_per_set);
}

int Buckets::BucketOf(size_t yt, int db_size) const {
  double fraction = static_cast<double>(yt) / static_cast<double>(db_size);
  for (size_t i = 0; i < upper_fractions.size(); ++i) {
    if (fraction < upper_fractions[i]) return static_cast<int>(i);
  }
  return static_cast<int>(upper_fractions.size()) - 1;
}

BucketAverager::BucketAverager(int num_buckets, int num_series)
    : num_series_(num_series),
      sums_(static_cast<size_t>(num_buckets) * num_series, 0.0),
      counts_(static_cast<size_t>(num_buckets) * num_series, 0) {}

void BucketAverager::Add(int bucket, int series, double value) {
  size_t slot = static_cast<size_t>(bucket) * num_series_ + series;
  sums_[slot] += value;
  counts_[slot] += 1;
}

double BucketAverager::Mean(int bucket, int series) const {
  size_t slot = static_cast<size_t>(bucket) * num_series_ + series;
  if (counts_[slot] == 0) return std::nan("");
  return sums_[slot] / counts_[slot];
}

int BucketAverager::Count(int bucket, int series) const {
  return counts_[static_cast<size_t>(bucket) * num_series_ + series];
}

void PrintBucketTable(const std::string& title, const Buckets& buckets,
                      const std::vector<std::string>& series_names,
                      const BucketAverager& averager) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-8s %8s", "bucket", "queries");
  for (const std::string& name : series_names) {
    std::printf(" %14s", name.c_str());
  }
  std::printf("\n");
  for (size_t b = 0; b < buckets.names.size(); ++b) {
    std::printf("%-8s %8d", buckets.names[b].c_str(),
                averager.Count(static_cast<int>(b), 0));
    for (size_t s = 0; s < series_names.size(); ++s) {
      double mean = averager.Mean(static_cast<int>(b), static_cast<int>(s));
      if (std::isnan(mean)) {
        std::printf(" %14s", "-");
      } else {
        std::printf(" %14.2f", mean);
      }
    }
    std::printf("\n");
  }
}

Result<FilterExperiment> RunFilterExperiment(
    const GraphDatabase& db, const ShardedFragmentIndex& default_index,
    const std::vector<SeriesSpec>& series, const std::vector<Graph>& queries,
    bool sample_verify_cost) {
  FilterExperiment out;
  out.yt_per_series.assign(series.size(), {});
  out.yp.assign(series.size(), {});
  out.filter_seconds.assign(series.size(), 0.0);
  TopoPruneEngine topo(&db, &default_index);

  std::vector<std::unique_ptr<PisEngine>> engines;
  std::vector<std::unique_ptr<TopoPruneEngine>> series_topo;
  for (const SeriesSpec& spec : series) {
    const ShardedFragmentIndex* index =
        spec.index != nullptr ? spec.index : &default_index;
    engines.push_back(std::make_unique<PisEngine>(&db, index, spec.options));
    series_topo.push_back(
        index == &default_index
            ? nullptr
            : std::make_unique<TopoPruneEngine>(&db, index));
  }

  size_t verify_candidates = 0;
  double verify_seconds = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats topo_stats;
    PIS_ASSIGN_OR_RETURN(std::vector<int> yt_candidates,
                         topo.Filter(queries[qi], &topo_stats));
    out.yt.push_back(yt_candidates.size());
    for (size_t si = 0; si < series.size(); ++si) {
      PIS_ASSIGN_OR_RETURN(FilterResult filtered, engines[si]->Filter(queries[qi]));
      // The paper's Yp: the partition bound alone, before the certificate.
      out.yp[si].push_back(filtered.stats.candidates_after_partition);
      out.filter_seconds[si] += filtered.stats.filter_seconds;
      if (series_topo[si] == nullptr) {
        out.yt_per_series[si].push_back(yt_candidates.size());
      } else {
        PIS_ASSIGN_OR_RETURN(std::vector<int> own_yt,
                             series_topo[si]->Filter(queries[qi], nullptr));
        out.yt_per_series[si].push_back(own_yt.size());
      }
      // Verify a small sample of candidates to estimate per-candidate cost.
      if (sample_verify_cost && si == 0 && qi % 8 == 0) {
        std::vector<int> sample = filtered.candidates;
        if (sample.size() > 20) sample.resize(20);
        VerifyResult v = VerifyCandidates(db, queries[qi], sample,
                                          default_index.options().spec,
                                          series[si].options.sigma);
        verify_candidates += sample.size();
        verify_seconds += v.seconds;
      }
    }
  }
  for (double& s : out.filter_seconds) {
    s /= queries.empty() ? 1 : static_cast<double>(queries.size());
  }
  if (verify_candidates > 0) {
    out.verify_seconds_per_candidate = verify_seconds / verify_candidates;
  }
  return out;
}

void ReportBucketed(const std::string& title, const WorkloadConfig& config,
                    const std::vector<size_t>& yt,
                    const std::vector<std::string>& series_names,
                    const std::vector<std::vector<double>>& values) {
  Buckets buckets;
  BucketAverager averager(static_cast<int>(buckets.names.size()),
                          static_cast<int>(series_names.size()));
  for (size_t qi = 0; qi < yt.size(); ++qi) {
    int bucket = buckets.BucketOf(yt[qi], config.db_size);
    for (size_t si = 0; si < series_names.size(); ++si) {
      averager.Add(bucket, static_cast<int>(si), values[si][qi]);
    }
  }
  PrintBucketTable(title, buckets, series_names, averager);
}

std::vector<std::vector<double>> ReductionRatios(const FilterExperiment& ex) {
  std::vector<std::vector<double>> ratios;
  for (size_t si = 0; si < ex.yp.size(); ++si) {
    std::vector<double> r(ex.yt.size());
    for (size_t qi = 0; qi < ex.yt.size(); ++qi) {
      r[qi] = static_cast<double>(ex.yt_per_series[si][qi]) /
              std::max<size_t>(1, ex.yp[si][qi]);
    }
    ratios.push_back(std::move(r));
  }
  return ratios;
}

JsonValue BucketTableJson(const WorkloadConfig& config,
                          const std::vector<size_t>& yt,
                          const std::vector<std::string>& series_names,
                          const std::vector<std::vector<double>>& values) {
  Buckets buckets;
  BucketAverager averager(static_cast<int>(buckets.names.size()),
                          static_cast<int>(series_names.size()));
  for (size_t qi = 0; qi < yt.size(); ++qi) {
    int bucket = buckets.BucketOf(yt[qi], config.db_size);
    for (size_t si = 0; si < series_names.size(); ++si) {
      averager.Add(bucket, static_cast<int>(si), values[si][qi]);
    }
  }
  JsonValue rows = JsonValue::Array();
  for (size_t b = 0; b < buckets.names.size(); ++b) {
    JsonValue row = JsonValue::Object();
    row.Set("bucket", buckets.names[b]);
    row.Set("queries", averager.Count(static_cast<int>(b), 0));
    for (size_t s = 0; s < series_names.size(); ++s) {
      row.Set(series_names[s],
              averager.Mean(static_cast<int>(b), static_cast<int>(s)));
    }
    rows.Push(std::move(row));
  }
  JsonValue table = JsonValue::Object();
  table.Set("buckets", std::move(rows));
  return table;
}

Status WriteJsonFile(const std::string& path, const JsonValue& value) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << value.Serialize() << "\n";
  out.flush();
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

int ReductionFigureMain(int argc, char** argv, const std::string& bench_name,
                        const std::string& figure_title,
                        int default_query_edges,
                        const std::vector<double>& sigmas) {
  WorkloadConfig config;
  int query_edges = default_query_edges;
  std::string json_out;
  FlagSet flags;
  config.Register(&flags);
  flags.AddInt("query_edges", &query_edges, "query size (edges)");
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
  for (double sigma : sigmas) {
    SeriesSpec spec;
    spec.name = StrFormat("PIS s=%g", sigma);
    spec.options.sigma = sigma;
    spec.options.max_query_fragments = config.max_query_fragments;
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
  ReportBucketed(figure_title + ", Q" + std::to_string(query_edges), config,
                 experiment.value().yt, names, ratios);
  if (!json_out.empty()) {
    JsonValue report = JsonValue::Object();
    report.Set("bench", bench_name);
    JsonValue cfg = JsonValue::Object();
    cfg.Set("db_size", config.db_size);
    cfg.Set("query_edges", query_edges);
    cfg.Set("queries", static_cast<uint64_t>(queries.value().size()));
    JsonValue sigma_list = JsonValue::Array();
    for (double sigma : sigmas) sigma_list.Push(sigma);
    cfg.Set("sigmas", std::move(sigma_list));
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

}  // namespace pis::bench
