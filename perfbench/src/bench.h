// Shared workload shape and helpers of the repository benchmark (pisbench).
// Every constant here is part of the benchmark definition: changing one
// changes what the numbers mean, so it is a benchmark change of its own.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace pisbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Database and index shape: the ROADMAP's target configuration (1000
// molecule-like graphs, sigma 2, three shards) with pis_server's default
// feature pipeline (fragments up to 4 edges, 5% support, gamma 1).
inline constexpr int kDbGraphs = 1000;
inline constexpr int kShards = 3;
inline constexpr double kSigma = 2.0;
inline constexpr int kMaxFragmentEdges = 4;
inline constexpr double kMinSupport = 0.05;
inline constexpr double kGamma = 1.0;

// Query sets. Large enough that per-query means (candidates, reply bytes,
// CPU time) vary little from seed to seed although single queries differ
// widely; small enough that validating every query against NaiveSearch and
// through the router stays cheap.
inline constexpr int kQueriesPerSet = 120;
inline constexpr int kBigQueryEdges = 16;
inline constexpr int kSmallQueryEdges = 4;

// Clients per workload (closed loop). Together with the writer connection
// no workload uses more than four client connections.
inline constexpr int kBigQueryClients = 3;
inline constexpr int kSmallQueryClients = 2;

// A query phase runs for --seconds and until it has this many samples, so
// p95 has at least ten samples beyond it (the router answers ~8 queries/s on
// four cores); it never runs longer than kMaxPhaseStretch x seconds.
inline constexpr size_t kMinQuerySamples = 200;
inline constexpr double kMaxPhaseStretch = 2.0;

// The open-loop writer of q4_write_server: alternating add/remove at a
// fixed rate, so a 15 s run issues 375 writes.
inline constexpr double kWritesPerSecond = 25.0;
// Closed-loop write tail that ends every workload (client.write_cpu_ms, and
// the write latency of the read-only workloads).
inline constexpr int kWriteTailOps = 200;

// Server configuration shared by every pis_server of the benchmark:
// fsync-per-group-commit WAL and background compaction at a low dead
// ratio, so the removals of a q4_write_server run trigger several
// compactions per shard.
inline constexpr double kCompactDeadRatio = 0.02;
inline constexpr int kCompactIntervalMs = 250;
inline constexpr int kServerWorkers = 4;

// Repetitions of the whole set-up per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

/// The seeded inputs of one run. The program under test only ever sees
/// these generated graphs.
struct Inputs {
  pis::GraphDatabase db;    ///< starting database, gids 0..kDbGraphs-1
  pis::GraphDatabase pool;  ///< graphs the writers add, in order
  std::vector<pis::Graph> big_queries;    ///< kBigQueryEdges-edge set
  std::vector<pis::Graph> small_queries;  ///< kSmallQueryEdges-edge set
  std::vector<int> removal_order;  ///< starting gids, in the order removed
};
Inputs MakeInputs(uint64_t seed);

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// One timed operation: when it completed and how long it took.
struct Sample {
  Clock::time_point done;
  double ms = 0;
};

/// p50 and p95 latency and completions per second of one load phase.
struct LatencySummary {
  double p50_ms = 0;
  double p95_ms = 0;
  double per_second = 0;  ///< samples / (last completion - start)
  size_t samples = 0;
};
LatencySummary Summarize(const std::vector<Sample>& samples,
                         Clock::time_point start);

/// Named metric values with units.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace pisbench

#endif  // PERFBENCH_BENCH_H_
