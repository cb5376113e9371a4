// In-memory span log of the traced run. Each span carries a name, start and
// end (milliseconds since the log was created, steady clock), the id of its
// parent span (-1 for a root), and the trace id every span of one replayed
// query shares. Nothing is written while the run measures; WriteJsonLines
// dumps the log once the run is over.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "util/status.h"

namespace pisbench {

struct Span {
  std::string name;
  uint64_t trace_id = 0;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  double dur_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double NowMs() const { return MsBetween(origin_, Clock::now()); }
  /// Appends a finished span and returns its id.
  int Add(std::string name, uint64_t trace_id, int parent, double start_ms,
          double end_ms);
  /// Re-parents span `child` (used when the parent is recorded after it).
  void SetParent(int child, int parent) { spans_[child].parent = parent; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Total duration of the spans named `name`.
  double TotalMs(const std::string& name) const;
  /// Duration of span `id` minus the part of it its children cover.
  double SelfMs(int id) const;

  /// One JSON object per line: {"id","name","trace_id","parent","start_ms",
  /// "end_ms"}.
  pis::Status WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace pisbench

#endif  // PERFBENCH_SPANS_H_
