// Shared setup for the paper-figure benches: dataset generation, feature
// mining, index construction, query sampling, and the Yt-bucket reporting
// scheme of Figures 8-12.
#ifndef PIS_BENCH_BENCH_COMMON_H_
#define PIS_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "pis.h"
#include "util/flags.h"
#include "util/json.h"

namespace pis::bench {

/// Workload configuration shared by every figure bench; overridable from
/// the command line so the paper-scale run (10k graphs) and a quick
/// smoke-scale run are both one command.
struct WorkloadConfig {
  int db_size = 1000;
  uint64_t db_seed = 42;
  int queries_per_set = 60;
  uint64_t query_seed = 7;
  /// gSpan relative min support for skeleton features.
  double feature_min_support = 0.01;
  /// gIndex discriminative ratio.
  double feature_gamma = 1.0;
  /// Fragment size bounds of the index.
  int min_fragment_edges = 1;
  int max_fragment_edges = 6;
  /// Cap on enumerated query fragments (0 = all).
  int max_query_fragments = 0;
  /// Threads for feature mining and index construction (0 = all hardware
  /// threads).
  int threads = 0;
  bool verbose = false;

  void Register(FlagSet* flags);
};

/// Generates the AIDS-like database (MoleculeGenerator, the stand-in for
/// the paper's dataset).
GraphDatabase MakeDatabase(const WorkloadConfig& config);

/// Mines skeleton features (gSpan on skeletons + discriminative selection).
Result<std::vector<Graph>> MineFeatures(const GraphDatabase& db,
                                        const WorkloadConfig& config);

/// Builds the (one-shard) fragment index for the edge mutation distance.
Result<ShardedFragmentIndex> BuildIndex(const GraphDatabase& db,
                                        const std::vector<Graph>& features,
                                        const WorkloadConfig& config);

/// Samples the query set Q_m (vertex labels stripped, as in the paper).
Result<std::vector<Graph>> SampleQueries(const GraphDatabase& db, int num_edges,
                                         const WorkloadConfig& config);

/// The paper's six query buckets by topoPrune candidate count Yt, relative
/// to the database size (the paper uses 10k: <300, <750, <1.5k, <3k, <5k,
/// the rest). Bucket edges scale with db_size.
struct Buckets {
  std::vector<double> upper_fractions = {0.03, 0.075, 0.15, 0.30, 0.50, 1.0};
  std::vector<std::string> names = {"Q<300", "Q750", "Q1.5k",
                                    "Q3k",   "Q5k",  "Q>5k"};
  int BucketOf(size_t yt, int db_size) const;
};

/// Per-(bucket, series) average accumulator.
class BucketAverager {
 public:
  BucketAverager(int num_buckets, int num_series);
  void Add(int bucket, int series, double value);
  /// Average or NaN when the bucket is empty.
  double Mean(int bucket, int series) const;
  int Count(int bucket, int series) const;

 private:
  int num_series_;
  std::vector<double> sums_;
  std::vector<int> counts_;
};

/// Prints a figure table: rows = buckets, columns = series.
void PrintBucketTable(const std::string& title, const Buckets& buckets,
                      const std::vector<std::string>& series_names,
                      const BucketAverager& averager);

/// One PIS configuration to evaluate as a figure series.
struct SeriesSpec {
  std::string name;
  PisOptions options;
  /// Index for this series (Figure 12 varies it); nullptr = shared default.
  const ShardedFragmentIndex* index = nullptr;
};

/// Per-query filtering outcomes for every series.
struct FilterExperiment {
  /// topoPrune candidate counts Yt against the default index, one per query
  /// (the bucketing key).
  std::vector<size_t> yt;
  /// topoPrune counts against each series' own index: [series][query].
  /// Equals `yt` replicated when a series shares the default index. The
  /// per-series reduction ratio divides by this, so a weaker index (Figure
  /// 12, size=4) is compared against its own structure filter.
  std::vector<std::vector<size_t>> yt_per_series;
  /// PIS candidate counts Yp: [series][query].
  std::vector<std::vector<size_t>> yp;
  /// Average PIS filtering time per query, per series (seconds).
  std::vector<double> filter_seconds;
  /// Average verification time per candidate, measured on a sample
  /// (supports the paper's "pruning cost is negligible" claim).
  double verify_seconds_per_candidate = 0;
};

/// Runs topoPrune and each PIS series over the query set.
/// topoPrune runs over each index's single shard.
Result<FilterExperiment> RunFilterExperiment(
    const GraphDatabase& db, const ShardedFragmentIndex& default_index,
    const std::vector<SeriesSpec>& series, const std::vector<Graph>& queries,
    bool sample_verify_cost = false);

/// Buckets per-query values of all series by Yt and prints the table.
/// `values[series][query]`; `yt` gives the bucket key.
void ReportBucketed(const std::string& title, const WorkloadConfig& config,
                    const std::vector<size_t>& yt,
                    const std::vector<std::string>& series_names,
                    const std::vector<std::vector<double>>& values);

/// Computes per-query reduction ratios Yt / max(Yp, 1) for each series.
std::vector<std::vector<double>> ReductionRatios(const FilterExperiment& ex);

/// The bucket table as JSON — the same numbers PrintBucketTable renders: a
/// "buckets" array of {bucket, queries, <series>: mean} rows. Empty buckets
/// carry null means (NaN serializes as null). Shared by every figure
/// bench's --json_out so plotting and regression scripts read one shape.
JsonValue BucketTableJson(const WorkloadConfig& config,
                          const std::vector<size_t>& yt,
                          const std::vector<std::string>& series_names,
                          const std::vector<std::vector<double>>& values);

/// Writes `value` plus a trailing newline to `path`, creating parent
/// directories as needed — the machine-readable side channel of a bench run
/// (the human-readable tables stay on stdout). Serialization is
/// deterministic (sorted keys), so checked-in bench JSON diffs cleanly.
Status WriteJsonFile(const std::string& path, const JsonValue& value);

/// Complete driver for a reduction-ratio figure (Figures 9 and 10): parse
/// flags, build workload, run the σ series, print the bucket table.
/// `bench_name` labels the --json_out report (e.g. "fig09_reduction_q16").
/// Returns a process exit code.
int ReductionFigureMain(int argc, char** argv, const std::string& bench_name,
                        const std::string& figure_title,
                        int default_query_edges,
                        const std::vector<double>& sigmas);

}  // namespace pis::bench

#endif  // PIS_BENCH_BENCH_COMMON_H_
