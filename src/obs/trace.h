// Per-query pipeline tracing: a TraceContext allocated at the front end
// (pis_server / pis_router request handler) collects a tree of wall-time
// spans — pass-1, selectivity, pass-2, verify, merge, WAL append,
// group-commit wait, snapshot publish — and renders it as a
// single-line JSON document for the `"trace": true` query reply and the
// slow-query log.
//
// Clock domains: every duration is measured on the local steady clock
// (util/timer.h MonotonicNowNs). Spans that cross the wire (a shard
// replica's internal timings returned in a shard_query/shard_verify reply)
// carry only start OFFSETS relative to their own root and durations —
// never raw timestamps — so a router can graft a remote subtree under its
// round-trip span without any cross-host clock agreement. A child's
// offsets are therefore in the REMOTE clock domain: children nest
// logically inside the round trip, and their summed durations are <= the
// round-trip duration minus network cost, but their absolute offsets are
// not comparable to sibling spans recorded locally.
//
// Wire/log schema (docs/observability.md):
//   span  := {"name":"<stage>","start_ms":F,"dur_ms":F,"children":[span*]}
//   trace := {"trace_id":"<id>","op":"query","total_ms":F,
//             "spans":[span*], ...front-end extras (sigma, answers)}
#ifndef PIS_OBS_TRACE_H_
#define PIS_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace pis {

/// \brief One timed stage; a node of the span tree.
struct TraceSpan {
  std::string name;
  /// Offset from the enclosing trace's start (or, for a remote subtree,
  /// from the remote handler's own start), in milliseconds.
  double start_ms = 0;
  double dur_ms = 0;
  std::vector<TraceSpan> children;

  JsonValue ToJsonValue() const;
  /// Strict decode (InvalidArgument on shape problems); depth-limited so a
  /// hostile reply cannot blow the stack.
  static Result<TraceSpan> FromJson(const JsonValue& json);

  /// Decodes a JSON array of spans (the "spans" field of a reply).
  static Result<std::vector<TraceSpan>> ListFromJson(const JsonValue& array);
  static JsonValue ListToJson(const std::vector<TraceSpan>& spans);
};

/// Synthesizes the `filter` span of a query trace from the engine's
/// QueryStats stage timings: children `pass1` (with a nested `selectivity`
/// child — pass-1 wall time includes the selectivity fits) / `partition` /
/// `pass2`, laid out back to back from `start_ms`. `start_ms`/`dur_ms` are
/// the measured bounds of the filter call in the caller's clock domain; the
/// children are reconstructions from stage timers, not independently
/// clocked spans.
TraceSpan BuildFilterSpan(const QueryStats& stats, double start_ms,
                          double dur_ms);

/// \brief Collects spans for one request, relative to its construction.
///
/// Thread-safe: shard fan-outs and parallel verify record from worker
/// threads. Tracing is off the metrics hot path — it only exists when the
/// front end decided to trace this request (explicit "trace":true or a
/// configured slow-query threshold), so a mutex per span is fine.
class TraceContext {
 public:
  explicit TraceContext(std::string trace_id);

  const std::string& trace_id() const { return trace_id_; }
  /// Milliseconds since construction (monotonic).
  double ElapsedMs() const;

  /// Appends a completed top-level span.
  void Record(TraceSpan span) PIS_EXCLUDES(mu_);

  /// Records `name` spanning [start_ms, now], adopting `children`
  /// (e.g. a remote reply's span list under its round-trip span).
  void RecordSince(const std::string& name, double start_ms,
                   std::vector<TraceSpan> children = {}) PIS_EXCLUDES(mu_);

  /// The collected spans, ordered by recording time.
  std::vector<TraceSpan> TakeSpans() PIS_EXCLUDES(mu_);

  /// {"trace_id":..,"total_ms":..,"spans":[..]} — callers add op extras.
  JsonValue ToJsonValue() PIS_EXCLUDES(mu_);

  /// Process-unique trace id: "<prefix>-<pid>-<seq>".
  static std::string NextId(const char* prefix);

 private:
  std::string trace_id_;
  uint64_t start_ns_;
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ PIS_GUARDED_BY(mu_);
};

/// \brief RAII span: times construction-to-Stop (or destruction) and
/// records into the context. A null context makes every operation a no-op,
/// so instrumented code needs no branches.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a child (remote subtree or sub-stage) recorded with the span.
  void AddChild(TraceSpan child);
  void AddChildren(std::vector<TraceSpan> children);
  /// Stops the clock and records now (destructor becomes a no-op).
  void Stop();

 private:
  TraceContext* ctx_;
  std::string name_;
  double start_ms_ = 0;
  std::vector<TraceSpan> children_;
  bool stopped_ = false;
};

/// \brief Append-only single-line-JSON log of traces that breached the
/// slow-query threshold. Thread-safe; lines are written atomically under a
/// mutex so concurrent handlers never interleave bytes.
class SlowQueryLog {
 public:
  /// `threshold_ms` <= 0 disables logging (ShouldLog is always false).
  /// `path` empty writes to stderr.
  SlowQueryLog(std::string path, double threshold_ms);

  bool enabled() const { return threshold_ms_ > 0; }
  double threshold_ms() const { return threshold_ms_; }
  bool ShouldLog(double total_ms) const {
    return enabled() && total_ms >= threshold_ms_;
  }

  /// Serializes `trace` as one line and appends it. Open failures are
  /// recorded (lines_dropped) but never fail the request.
  void Log(const JsonValue& trace) PIS_EXCLUDES(mu_);

  uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }
  uint64_t lines_dropped() const {
    return lines_dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  double threshold_ms_;
  Mutex mu_;
  std::atomic<uint64_t> lines_written_{0};
  std::atomic<uint64_t> lines_dropped_{0};
};

}  // namespace pis

#endif  // PIS_OBS_TRACE_H_
