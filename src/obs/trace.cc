#include "obs/trace.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <utility>

namespace pis {

namespace {

constexpr int kMaxSpanDepth = 16;

Result<TraceSpan> SpanFromJson(const JsonValue& json, int depth) {
  if (depth > kMaxSpanDepth) {
    return Status::InvalidArgument("trace span tree too deep");
  }
  if (!json.is_object()) {
    return Status::InvalidArgument("trace span must be an object");
  }
  const JsonValue* name = json.Find("name");
  if (name == nullptr || !name->is_string()) {
    return Status::InvalidArgument("trace span missing string 'name'");
  }
  TraceSpan span;
  span.name = name->AsString();
  span.start_ms = json.GetNumberOr("start_ms", 0);
  span.dur_ms = json.GetNumberOr("dur_ms", 0);
  if (span.start_ms < 0 || span.dur_ms < 0) {
    return Status::InvalidArgument("trace span times must be non-negative");
  }
  const JsonValue* children = json.Find("children");
  if (children != nullptr) {
    if (!children->is_array()) {
      return Status::InvalidArgument("trace span 'children' must be an array");
    }
    span.children.reserve(children->size());
    for (const JsonValue& child : children->items()) {
      PIS_ASSIGN_OR_RETURN(TraceSpan decoded, SpanFromJson(child, depth + 1));
      span.children.push_back(std::move(decoded));
    }
  }
  return span;
}

}  // namespace

JsonValue TraceSpan::ToJsonValue() const {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", name);
  obj.Set("start_ms", start_ms);
  obj.Set("dur_ms", dur_ms);
  if (!children.empty()) {
    JsonValue kids = JsonValue::Array();
    for (const TraceSpan& child : children) kids.Push(child.ToJsonValue());
    obj.Set("children", std::move(kids));
  }
  return obj;
}

Result<TraceSpan> TraceSpan::FromJson(const JsonValue& json) {
  return SpanFromJson(json, 0);
}

Result<std::vector<TraceSpan>> TraceSpan::ListFromJson(const JsonValue& array) {
  if (!array.is_array()) {
    return Status::InvalidArgument("'spans' must be an array");
  }
  std::vector<TraceSpan> spans;
  spans.reserve(array.size());
  for (const JsonValue& item : array.items()) {
    PIS_ASSIGN_OR_RETURN(TraceSpan span, SpanFromJson(item, 0));
    spans.push_back(std::move(span));
  }
  return spans;
}

JsonValue TraceSpan::ListToJson(const std::vector<TraceSpan>& spans) {
  JsonValue array = JsonValue::Array();
  for (const TraceSpan& span : spans) array.Push(span.ToJsonValue());
  return array;
}

TraceSpan BuildFilterSpan(const QueryStats& stats, double start_ms,
                          double dur_ms) {
  TraceSpan filter;
  filter.name = "filter";
  filter.start_ms = start_ms;
  filter.dur_ms = dur_ms;
  double offset = start_ms;
  auto stage = [&offset](const char* name, double seconds) {
    TraceSpan span;
    span.name = name;
    span.start_ms = offset;
    span.dur_ms = seconds * 1e3;
    offset += span.dur_ms;
    return span;
  };
  TraceSpan pass1 = stage("pass1", stats.pass1_seconds);
  // Pass-1 wall time includes the per-fragment selectivity fits, so the
  // selectivity child nests at the pass-1 start rather than after it.
  TraceSpan selectivity;
  selectivity.name = "selectivity";
  selectivity.start_ms = pass1.start_ms;
  selectivity.dur_ms = stats.selectivity_seconds * 1e3;
  pass1.children.push_back(std::move(selectivity));
  filter.children.push_back(std::move(pass1));
  filter.children.push_back(stage("partition", stats.partition_seconds));
  filter.children.push_back(stage("pass2", stats.pass2_seconds));
  return filter;
}

TraceContext::TraceContext(std::string trace_id)
    : trace_id_(std::move(trace_id)), start_ns_(MonotonicNowNs()) {}

double TraceContext::ElapsedMs() const {
  return static_cast<double>(MonotonicNowNs() - start_ns_) / 1e6;
}

void TraceContext::Record(TraceSpan span) {
  MutexLock lock(&mu_);
  spans_.push_back(std::move(span));
}

void TraceContext::RecordSince(const std::string& name, double start_ms,
                               std::vector<TraceSpan> children) {
  TraceSpan span;
  span.name = name;
  span.start_ms = start_ms;
  span.dur_ms = ElapsedMs() - start_ms;
  if (span.dur_ms < 0) span.dur_ms = 0;
  span.children = std::move(children);
  Record(std::move(span));
}

std::vector<TraceSpan> TraceContext::TakeSpans() {
  MutexLock lock(&mu_);
  std::vector<TraceSpan> out = std::move(spans_);
  spans_.clear();
  return out;
}

JsonValue TraceContext::ToJsonValue() {
  JsonValue obj = JsonValue::Object();
  obj.Set("trace_id", trace_id_);
  obj.Set("total_ms", ElapsedMs());
  JsonValue spans = JsonValue::Array();
  {
    MutexLock lock(&mu_);
    for (const TraceSpan& span : spans_) spans.Push(span.ToJsonValue());
  }
  obj.Set("spans", std::move(spans));
  return obj;
}

std::string TraceContext::NextId(const char* prefix) {
  static std::atomic<uint64_t> seq{0};
  const uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%d-%llu", prefix,
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(n));
  return buf;
}

ScopedSpan::ScopedSpan(TraceContext* ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)) {
  if (ctx_ != nullptr) start_ms_ = ctx_->ElapsedMs();
}

ScopedSpan::~ScopedSpan() { Stop(); }

void ScopedSpan::AddChild(TraceSpan child) {
  if (ctx_ == nullptr) return;
  children_.push_back(std::move(child));
}

void ScopedSpan::AddChildren(std::vector<TraceSpan> children) {
  if (ctx_ == nullptr) return;
  for (TraceSpan& child : children) children_.push_back(std::move(child));
}

void ScopedSpan::Stop() {
  if (ctx_ == nullptr || stopped_) return;
  stopped_ = true;
  ctx_->RecordSince(name_, start_ms_, std::move(children_));
}

SlowQueryLog::SlowQueryLog(std::string path, double threshold_ms)
    : path_(std::move(path)), threshold_ms_(threshold_ms) {}

void SlowQueryLog::Log(const JsonValue& trace) {
  const std::string line = trace.Serialize() + '\n';
  MutexLock lock(&mu_);
  if (path_.empty()) {
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
    lines_written_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) {
    lines_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t wrote = std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
  if (wrote == line.size()) {
    lines_written_.fetch_add(1, std::memory_order_relaxed);
  } else {
    lines_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace pis
