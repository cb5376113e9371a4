// Load generation and answer checking: closed-loop query clients, the
// write stream (alternating add/remove with a model of the acked live
// set), its open-loop and closed-loop runners, and the NaiveSearch oracle.
//
// Every load thread measures its own CPU time, so the benchmark can charge
// the program under test only for the CPU it used: process CPU time minus
// what the load generators spent.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "graph/graph.h"
#include "util/json.h"
#include "util/status.h"

namespace pisbench {

/// Tally of attempted operations and the ones that failed, were refused,
/// or returned a wrong answer.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// User plus system CPU time of the whole process, and of the calling
/// thread, in milliseconds.
double ProcessCpuMs();
double ThreadCpuMs();

/// Exact answers of every query over `db` (NaiveSearch), with result ids
/// mapped through `gids` (gids[i] is the id of db graph i; empty = i).
std::vector<std::vector<int>> OracleAnswers(
    const pis::GraphDatabase& db, const std::vector<int>& gids,
    const std::vector<pis::Graph>& queries);

/// One pass of every query through a front end: the checks, and what the
/// correct replies carried in total.
struct CheckedPass {
  OpCount ops;
  uint64_t candidates = 0;   ///< sum of the replies' "candidates"
  uint64_t reply_bytes = 0;  ///< sum of the reply line sizes
};

/// Sends every query once over `connections` parallel connections and
/// compares each reply with `expected`. Mismatches are reported on stderr.
CheckedPass CheckServedAnswers(int port,
                               const std::vector<pis::Graph>& queries,
                               const std::vector<std::vector<int>>& expected,
                               int connections, const char* what);

struct QueryLoad {
  Clock::time_point start;
  std::vector<Sample> samples;  ///< one per correctly answered query
  double client_cpu_ms = 0;     ///< CPU time of the client threads
  OpCount ops;
};

/// Closed loop: `clients` connections each send their next query as soon
/// as the previous reply arrived, cycling through `queries` from staggered
/// offsets, for `seconds` and until kMinQuerySamples queries completed
/// (at most kMaxPhaseStretch x seconds). With `expected` non-null every
/// reply's answers are checked too (read-only workloads).
QueryLoad RunClosedLoopQueries(int port, const std::vector<pis::Graph>& queries,
                               const std::vector<std::vector<int>>* expected,
                               int clients, double seconds);

/// Alternating add (next pool graph) / remove (next starting gid in the
/// seeded removal order) requests, tracking which gids are live after
/// every acknowledged write.
class WriteStream {
 public:
  explicit WriteStream(const Inputs& inputs);

  bool exhausted() const;
  bool next_is_add() const { return next_is_add_; }
  std::string NextRequest() const;
  /// Records the reply of the request NextRequest() returned and advances.
  /// False when the reply does not acknowledge the write.
  bool Ack(const pis::Result<pis::JsonValue>& reply);

  /// The acknowledged live set: graphs (ascending gid) and their gids.
  pis::GraphDatabase LiveDatabase(std::vector<int>* gids) const;

 private:
  const Inputs& inputs_;
  std::vector<const pis::Graph*> by_gid_;  ///< nullptr = removed
  size_t next_add_ = 0;
  size_t next_remove_ = 0;
  bool next_is_add_ = true;
};

struct WriteLoad {
  Clock::time_point start;
  std::vector<Sample> samples;     ///< latency from the scheduled send time
  std::vector<double> add_ms;      ///< add round trips
  std::vector<double> remove_ms;   ///< remove round trips
  std::vector<double> late_ms;     ///< send time minus scheduled time
  double client_cpu_ms = 0;        ///< CPU time of the writer thread
  OpCount ops;
};

/// Open loop on one connection: op i is due at start + i / rate and is
/// sent then, or as soon as the previous reply arrived if that is later.
/// Runs until `seconds` have passed or the stream is exhausted.
WriteLoad RunOpenLoopWrites(int port, WriteStream* stream, double rate,
                            double seconds);

/// Closed loop on one connection: `ops` writes back to back.
WriteLoad RunClosedLoopWrites(int port, WriteStream* stream, int ops);

}  // namespace pisbench

#endif  // PERFBENCH_LOAD_H_
