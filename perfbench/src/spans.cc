#include "spans.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"

namespace pisbench {

int SpanLog::Add(std::string name, uint64_t trace_id, int parent,
                 double start_ms, double end_ms) {
  spans_.push_back({std::move(name), trace_id, parent, start_ms, end_ms});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.dur_ms();
  }
  return total;
}

double SpanLog::SelfMs(int id) const {
  // Children of one parent never overlap each other (the ladder calls one
  // layer at a time), so their clipped durations simply add up.
  const Span& parent = spans_[id];
  double covered = 0;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    const double start = std::max(s.start_ms, parent.start_ms);
    const double end = std::min(s.end_ms, parent.end_ms);
    if (end > start) covered += end - start;
  }
  return parent.dur_ms() - covered;
}

pis::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return pis::Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    pis::JsonValue line = pis::JsonValue::Object();
    line.Set("id", static_cast<int>(i));
    line.Set("name", s.name);
    line.Set("trace_id", s.trace_id);
    line.Set("parent", s.parent);
    line.Set("start_ms", s.start_ms);
    line.Set("end_ms", s.end_ms);
    out << line.Serialize() << '\n';
  }
  out.close();
  if (!out) return pis::Status::IOError("short write to " + path);
  return pis::Status::OK();
}

}  // namespace pisbench
