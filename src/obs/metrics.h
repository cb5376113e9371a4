// Process-wide metrics: lock-free counters/gauges and fixed-bucket latency
// histograms behind a registry that renders Prometheus text exposition and
// a JSON mirror for the `stats` protocol op.
//
// Concurrency contract (the whole point of the design):
//
//   - The HOT PATH — Counter::Inc, Gauge::Set/Add, Histogram::Observe — is
//     atomics only. No mutex, no allocation, no branch beyond the bucket
//     scan. Instrumented code caches the metric pointer once at setup and
//     pokes atomics per event, so the query path never serializes on the
//     registry.
//   - REGISTRATION (GetCounter/GetGauge/GetHistogram) takes the registry
//     mutex (TSA-annotated) and is idempotent: the same (name, labels)
//     returns the same child, so concurrent registration is safe and
//     lazily instrumenting per-endpoint/per-op children is cheap enough to
//     do on first use. Returned pointers stay valid for the registry's
//     lifetime — children are heap-allocated and never erased.
//   - RENDERING (RenderPrometheus/ToJsonValue) takes the mutex to walk the
//     family maps but reads values through the same relaxed atomics the
//     hot path writes; a render racing an increment sees either value,
//     never a torn one.
//   - RECORDING IS ALWAYS ON: a component handed no registry records into
//     one it owns (RegistryRef), so no recording site tests for "metrics
//     enabled". A component that registers before it knows its final
//     registry hands its children over with Adopt — the children keep
//     their addresses, so cached pointers stay valid and nothing counted
//     before the hand-over is lost.
//
// Metric names follow Prometheus conventions: `pis_<noun>_total` counters,
// `pis_<noun>` gauges, `pis_<noun>_seconds` histograms with `_bucket`/
// `_sum`/`_count` series. Labels are fixed at registration per child
// (e.g. {op="query"}, {endpoint="127.0.0.1:4871"}).
#ifndef PIS_OBS_METRICS_H_
#define PIS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pis {

/// Label set of one metric child, fixed at registration. Order-insensitive:
/// the registry sorts by key, so {a=1,b=2} and {b=2,a=1} are one child.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotone event counter (atomic, relaxed).
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (atomic, relaxed).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket histogram with Prometheus semantics.
///
/// Buckets store NON-cumulative counts internally (each observation lands
/// in exactly one bucket, one fetch_add); exposition accumulates them into
/// the cumulative `le` form Prometheus expects. The sum is an atomic
/// double (CAS loop — still lock-free), so `_sum`/`_count` give a true
/// mean even between bucket bounds.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; the +Inf bucket is implicit.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  /// Convenience for the common case: durations measured in seconds.
  void ObserveSeconds(double seconds) { Observe(seconds); }

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Default latency bounds: 100us .. ~26s, x4 steps — wide enough for a
  /// selectivity fit and a cold cluster round trip on one scale.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 slots; the last is the +Inf overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double, CAS-accumulated
};

/// \brief Registry of labeled metric families.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the servers expose. Tests build their own.
  static MetricsRegistry& Global();

  /// Idempotent registration: returns the existing child when (name,
  /// labels) was seen before. `help` is recorded on first registration.
  /// Registering one name as two different types is a programming error
  /// and returns the originally-registered family's child of that name
  /// only for the original type — the mismatched call gets a process-local
  /// dummy so callers never crash (and the bug is visible in exposition).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels = {}) PIS_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels = {}) PIS_EXCLUDES(mu_);
  /// `bounds` applies on first registration of the family; later calls
  /// reuse the family's bounds (children of one family share buckets).
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds = {},
                          const MetricLabels& labels = {}) PIS_EXCLUDES(mu_);

  /// Prometheus text exposition (version 0.0.4): families sorted by name,
  /// children by label string, `# HELP`/`# TYPE` headers once per family.
  std::string RenderPrometheus() const PIS_EXCLUDES(mu_);

  /// JSON mirror for the `stats` op: {"<family>":{"type":..,
  /// "values":[{"labels":{..},"value":..|"count"/"sum"/"buckets"},..]},..}.
  JsonValue ToJsonValue() const PIS_EXCLUDES(mu_);

  /// Moves every family and child of `other` into this registry, leaving
  /// `other` empty. Children move by ownership, so pointers handed out by
  /// `other` stay valid and keep recording — now into this exposition.
  /// A child whose (name, labels) this registry already holds (or whose
  /// family has another type here) stays alive but unrendered: the
  /// existing child wins, as with a type-mismatched registration.
  void Adopt(MetricsRegistry* other) PIS_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    Kind kind;
    std::string help;
    std::vector<double> bounds;  // histograms only
    /// Serialized sorted label set -> child. Pointers are stable: children
    /// are never erased while the registry lives.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    /// Original label sets keyed like the child maps (for exposition).
    std::map<std::string, MetricLabels> label_sets;
  };

  Family* GetFamily(const std::string& name, Kind kind,
                    const std::string& help) PIS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family> families_ PIS_GUARDED_BY(mu_);
  /// Adopted children that collided with an existing one (see Adopt).
  std::vector<std::shared_ptr<const void>> shadowed_ PIS_GUARDED_BY(mu_);
};

/// \brief The registry a component records into: the caller's, or — when
/// the caller passed none — one the component owns. Either way the
/// component's instruments exist from construction on.
class RegistryRef {
 public:
  explicit RegistryRef(MetricsRegistry* shared)
      : owned_(shared == nullptr ? std::make_unique<MetricsRegistry>()
                                 : nullptr),
        registry_(shared != nullptr ? shared : owned_.get()) {}

  MetricsRegistry* get() const { return registry_; }
  MetricsRegistry* operator->() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

}  // namespace pis

#endif  // PIS_OBS_METRICS_H_
