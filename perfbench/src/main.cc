// pisbench: the repository benchmark's single process. See README.md.
//
//   pisbench --workload q16_server|q4_write_server|q16_router --seed N
//            --seconds S --trace 0|1 [--work_dir DIR]
//
// --trace 0 sets the seeded deployment up several times (setup_s is the
// median), validates every query of the workload's set against
// NaiveSearch, runs the workload's traffic, and reports the end-to-end
// metrics. --trace 1 runs the same traffic once more for the client-side
// latency figures, then sets up a fresh deployment and runs the traced
// layer ladder (ladder.h) for the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Progress goes to stderr. The exit code is 0 only when every
// operation succeeded with the right answer.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "deploy.h"
#include "ladder.h"
#include "load.h"
#include "spans.h"
#include "util/flags.h"

namespace pisbench {
namespace {

enum class Workload { kQ16Server, kQ4WriteServer, kQ16Router };

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "q16_server") {
    *out = Workload::kQ16Server;
  } else if (name == "q4_write_server") {
    *out = Workload::kQ4WriteServer;
  } else if (name == "q16_router") {
    *out = Workload::kQ16Router;
  } else {
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const OpCount& ops, const MetricSet& metrics) {
  const bool correct = ops.failed == 0 && ops.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
}

/// Prints one latency series: sample count, p50, p95, rate.
void Report(const char* what, const LatencySummary& s) {
  std::fprintf(stderr,
               "%-8s %6zu samples  p50 %8.3f ms  p95 %8.3f ms  %8.3f/s\n",
               what, s.samples, s.p50_ms, s.p95_ms, s.per_second);
}

uint64_t BackgroundCompactions(const Deployment& d) {
  uint64_t total = d.server ? d.server->host->background_compactions() : 0;
  for (const auto& replica : d.replicas) {
    total += replica->host->background_compactions();
  }
  return total;
}

/// What one pass of a workload's traffic measured.
struct WorkloadRun {
  OpCount ops;
  LatencySummary reads;
  LatencySummary writes;
  double query_cpu_ms = 0;
  double write_cpu_ms = 0;
  double candidates_per_query = 0;
  double reply_bytes_per_query = 0;
  uint64_t compactions = 0;
};

/// Validates every query, runs the workload's traffic for `seconds`
/// (re-validating afterwards on q4_write_server), then the closed-loop
/// write tail. CPU figures are process CPU time minus the load threads'
/// own, per completed operation.
WorkloadRun RunWorkload(Deployment& d, Workload workload,
                        const std::vector<pis::Graph>& queries,
                        const std::vector<std::vector<int>>& expected,
                        double seconds, const char* name) {
  WorkloadRun run;
  const int port = workload == Workload::kQ16Router
                       ? d.router->port()
                       : d.server->server->port();
  const bool small = workload == Workload::kQ4WriteServer;
  const int clients = small ? kSmallQueryClients : kBigQueryClients;
  // Validate before timing (this pass also warms every cache). It sends
  // each query exactly once, so its per-query figures depend on the seed
  // alone.
  const CheckedPass checked =
      CheckServedAnswers(port, queries, expected, clients, name);
  run.ops.Add(checked.ops);
  if (run.ops.failed > 0) return run;
  run.candidates_per_query =
      static_cast<double>(checked.candidates) / queries.size();
  run.reply_bytes_per_query =
      static_cast<double>(checked.reply_bytes) / queries.size();

  WriteStream stream(d.inputs);
  QueryLoad reads;
  WriteLoad writes;
  double cpu = ProcessCpuMs();
  if (small) {
    std::thread writer([&] {
      writes = RunOpenLoopWrites(port, &stream, kWritesPerSecond, seconds);
    });
    reads = RunClosedLoopQueries(port, queries, nullptr, clients, seconds);
    writer.join();
  } else {
    reads = RunClosedLoopQueries(port, queries, &expected, clients, seconds);
  }
  cpu = ProcessCpuMs() - cpu - reads.client_cpu_ms - writes.client_cpu_ms;
  run.ops.Add(reads.ops);
  run.ops.Add(writes.ops);
  run.reads = Summarize(reads.samples, reads.start);
  run.query_cpu_ms = cpu / std::max<size_t>(1, reads.samples.size());
  if (small) {
    // Re-check against NaiveSearch over the acknowledged live set.
    std::vector<int> gids;
    const pis::GraphDatabase live = stream.LiveDatabase(&gids);
    run.ops.Add(CheckServedAnswers(port, queries,
                                   OracleAnswers(live, gids, queries),
                                   clients, "after writes")
                    .ops);
    run.writes = Summarize(writes.samples, writes.start);
  }

  cpu = ProcessCpuMs();
  WriteLoad tail = RunClosedLoopWrites(port, &stream, kWriteTailOps);
  cpu = ProcessCpuMs() - cpu - tail.client_cpu_ms;
  run.ops.Add(tail.ops);
  run.write_cpu_ms = cpu / std::max<size_t>(1, tail.samples.size());
  if (!small) run.writes = Summarize(tail.samples, tail.start);
  run.compactions = BackgroundCompactions(d);

  Report("queries", run.reads);
  Report("writes", run.writes);
  std::fprintf(stderr,
               "cpu per query %.3f ms, per write %.3f ms; %.1f candidates and "
               "%.0f reply bytes per query; %llu background compaction(s)\n",
               run.query_cpu_ms, run.write_cpu_ms, run.candidates_per_query,
               run.reply_bytes_per_query,
               static_cast<unsigned long long>(run.compactions));
  return run;
}

int Run(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/runs";
  bool corrupt_oracle = false;
  pis::FlagSet flags;
  flags.AddString("workload", &workload_name,
                  "q16_server | q4_write_server | q16_router");
  flags.AddInt64("seed", &seed, "seed of every generated input");
  flags.AddDouble("seconds", &seconds, "measured duration");
  flags.AddInt("trace", &trace, "0 = end-to-end run, 1 = traced layer run");
  flags.AddString("work_dir", &work_dir, "scratch directory (created)");
  flags.AddBool("corrupt_oracle", &corrupt_oracle,
                "self-test: add a bogus expected answer so validation must "
                "fail the run");
  pis::Status parsed = flags.Parse(argc, argv);
  Workload workload = Workload::kQ16Server;
  if (!parsed.ok() || !ParseWorkload(workload_name, &workload) ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage("pisbench").c_str());
    return 2;
  }
  const bool traced = trace == 1;
  const std::string run_dir = work_dir + "/" + workload_name + "-" +
                              std::to_string(seed) + "-" +
                              std::to_string(getpid());
  int setups = 0;
  auto set_up = [&](const DeployOptions& options)
      -> std::unique_ptr<Deployment> {
    pis::Result<std::unique_ptr<Deployment>> made =
        SetUp(static_cast<uint64_t>(seed),
              run_dir + "/setup" + std::to_string(setups++), options);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return nullptr;
    }
    return made.MoveValue();
  };
  auto query_set = [&](const Deployment& d) -> const std::vector<pis::Graph>& {
    return workload == Workload::kQ4WriteServer ? d.inputs.small_queries
                                                : d.inputs.big_queries;
  };
  auto expected_answers = [&](const Deployment& d) {
    std::vector<std::vector<int>> expected =
        OracleAnswers(d.inputs.db, {}, query_set(d));
    if (corrupt_oracle && !expected.empty()) {
      expected[0].push_back(kDbGraphs + 1);  // an id no answer can carry
    }
    return expected;
  };

  DeployOptions deploy;
  deploy.server = workload != Workload::kQ16Router;
  deploy.cluster = workload == Workload::kQ16Router;
  OpCount ops;
  MetricSet metrics;
  // The workload's traffic: after kSetupRepetitions set-ups untraced, after
  // one traced (its latency figures become client.* layer metrics).
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (traced ? 1 : kSetupRepetitions); ++rep) {
    d.reset();
    d = set_up(deploy);
    if (d == nullptr) return 1;
    setup_s.push_back(d->setup_s);
  }
  std::fprintf(stderr, "set-up: %.3f s (median of %zu)\n",
               Percentile(setup_s, 0.5), setup_s.size());
  const WorkloadRun run =
      RunWorkload(*d, workload, query_set(*d), expected_answers(*d), seconds,
                  workload_name.c_str());
  ops.Add(run.ops);
  const double index_bytes_per_graph =
      static_cast<double>(d->index_bytes) / kDbGraphs;
  d.reset();

  if (!traced) {
    metrics.Set("setup_s", Percentile(setup_s, 0.5), "s");
    metrics.Set("candidates_per_query", run.candidates_per_query, "count");
    metrics.Set("reply_bytes_per_query", run.reply_bytes_per_query, "B");
    metrics.Set("index_bytes_per_graph", index_bytes_per_graph, "B");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else if (ops.failed == 0) {
    metrics.Set("client.query_cpu_ms", run.query_cpu_ms, "ms");
    metrics.Set("client.write_cpu_ms", run.write_cpu_ms, "ms");
    metrics.Set("client.query_p50_ms", run.reads.p50_ms, "ms");
    metrics.Set("client.query_p95_ms", run.reads.p95_ms, "ms");
    metrics.Set("client.query_qps", run.reads.per_second, "1/s");
    metrics.Set("client.queries", static_cast<double>(run.reads.samples),
                "count");
    metrics.Set("client.write_p50_ms", run.writes.p50_ms, "ms");
    metrics.Set("client.write_p95_ms", run.writes.p95_ms, "ms");
    metrics.Set("client.writes", static_cast<double>(run.writes.samples),
                "count");
    metrics.Set("server.background_compactions",
                static_cast<double>(run.compactions), "count");

    // The ladder needs every layer, so it gets a deployment of its own.
    DeployOptions full;
    full.server = true;
    full.cluster = true;
    d = set_up(full);
    if (d == nullptr) return 1;
    SpanLog log;
    LadderOutcome ladder = RunTracedLadder(
        *d, query_set(*d), expected_answers(*d), seconds, &log, &metrics);
    ops.Add(ladder.ops);
    if (!ladder.reconciled) ops.failed += 1;
    d.reset();
    const std::string trace_path = work_dir + "/trace-" + workload_name +
                                   "-" + std::to_string(seed) + ".jsonl";
    pis::Status written = log.WriteJsonLines(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      ops.failed += 1;
    }
    std::fprintf(stderr, "%zu spans -> %s\n", log.spans().size(),
                 trace_path.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  PrintResult(ops, metrics);
  return ops.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pisbench

int main(int argc, char** argv) { return pisbench::Run(argc, argv); }
