#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <limits>

namespace pis {

namespace {

/// Shortest-round-trip rendering for exposition values (same policy as the
/// JSON serializer: integral values print without a decimal point).
std::string FormatNumber(double d) {
  if (d == static_cast<double>(static_cast<int64_t>(d)) &&
      d >= -9.2e18 && d <= 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(d)));
    return buf;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  return std::string(buf, ptr);
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Help strings escape backslash and newline only (they are unquoted).
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Canonical child key: labels sorted by name, rendered exactly as the
/// exposition label block (minus braces). Doubles as the exposition text.
std::string LabelKey(const MetricLabels& labels) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (!key.empty()) key += ',';
    key += k;
    key += "=\"";
    key += EscapeLabelValue(v);
    key += '"';
  }
  return key;
}

/// "name" or "name{a="1"}" — the series head for one child, with an extra
/// label ("le" for buckets) appended when provided.
std::string SeriesHead(const std::string& name, const std::string& label_key,
                       const std::string& extra = {}) {
  std::string out = name;
  if (label_key.empty() && extra.empty()) return out;
  out += '{';
  out += label_key;
  if (!extra.empty()) {
    if (!label_key.empty()) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

JsonValue LabelsToJson(const MetricLabels& labels) {
  JsonValue obj = JsonValue::Object();
  for (const auto& [k, v] : labels) obj.Set(k, v);
  return obj;
}

/// Moves every child of `from` into `to` unless `to` already holds its key;
/// the losers go to `shadowed` so their addresses stay valid.
template <typename T>
void MoveChildren(std::map<std::string, std::unique_ptr<T>>* from,
                  std::map<std::string, std::unique_ptr<T>>* to,
                  const std::map<std::string, MetricLabels>& from_labels,
                  std::map<std::string, MetricLabels>* to_labels,
                  std::vector<std::shared_ptr<const void>>* shadowed) {
  for (auto& [key, child] : *from) {
    if (to == nullptr || to->count(key) > 0) {
      shadowed->push_back(std::shared_ptr<const T>(std::move(child)));
      continue;
    }
    to->emplace(key, std::move(child));
    to_labels->emplace(key, from_labels.at(key));
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits the value; linear scan — bucket
  // lists are short (<= ~16) and the scan is branch-predictable.
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const double new_sum = std::bit_cast<double>(old_bits) + value;
    if (sum_bits_.compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(
                                                      new_sum),
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  // 100us * 4^k for k in [0, 9]: 0.0001 .. ~26.2s.
  std::vector<double> bounds;
  double b = 1e-4;
  for (int i = 0; i < 10; ++i) {
    bounds.push_back(b);
    b *= 4;
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family* MetricsRegistry::GetFamily(const std::string& name,
                                                    Kind kind,
                                                    const std::string& help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family fam;
    fam.kind = kind;
    fam.help = help;
    it = families_.emplace(name, std::move(fam)).first;
  }
  if (it->second.kind != kind) return nullptr;  // type mismatch
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* fam = GetFamily(name, Kind::kCounter, help);
  if (fam == nullptr) {
    static Counter* dummy = new Counter();  // type-mismatch sink
    return dummy;
  }
  const std::string key = LabelKey(labels);
  auto it = fam->counters.find(key);
  if (it == fam->counters.end()) {
    it = fam->counters.emplace(key, std::make_unique<Counter>()).first;
    fam->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* fam = GetFamily(name, Kind::kGauge, help);
  if (fam == nullptr) {
    static Gauge* dummy = new Gauge();
    return dummy;
  }
  const std::string key = LabelKey(labels);
  auto it = fam->gauges.find(key);
  if (it == fam->gauges.end()) {
    it = fam->gauges.emplace(key, std::make_unique<Gauge>()).first;
    fam->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds,
                                         const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* fam = GetFamily(name, Kind::kHistogram, help);
  if (fam == nullptr) {
    static Histogram* dummy = new Histogram(Histogram::DefaultLatencyBounds());
    return dummy;
  }
  if (fam->histograms.empty()) {
    fam->bounds =
        bounds.empty() ? Histogram::DefaultLatencyBounds() : std::move(bounds);
  }
  const std::string key = LabelKey(labels);
  auto it = fam->histograms.find(key);
  if (it == fam->histograms.end()) {
    it = fam->histograms.emplace(key, std::make_unique<Histogram>(fam->bounds))
             .first;
    fam->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

void MetricsRegistry::Adopt(MetricsRegistry* other) {
  if (other == this) return;
  std::map<std::string, Family> incoming;
  {
    MutexLock lock(&other->mu_);
    incoming.swap(other->families_);
  }
  MutexLock lock(&mu_);
  for (auto& [name, fam] : incoming) {
    auto [it, inserted] = families_.try_emplace(name, std::move(fam));
    if (inserted) continue;
    Family& mine = it->second;
    const bool same = mine.kind == fam.kind;
    MoveChildren(&fam.counters, same ? &mine.counters : nullptr,
                 fam.label_sets, &mine.label_sets, &shadowed_);
    MoveChildren(&fam.gauges, same ? &mine.gauges : nullptr, fam.label_sets,
                 &mine.label_sets, &shadowed_);
    MoveChildren(&fam.histograms, same ? &mine.histograms : nullptr,
                 fam.label_sets, &mine.label_sets, &shadowed_);
  }
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    const char* type = fam.kind == Kind::kCounter   ? "counter"
                       : fam.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
    out += "# HELP " + name + ' ' + EscapeHelp(fam.help) + '\n';
    out += "# TYPE " + name + ' ' + type + '\n';
    switch (fam.kind) {
      case Kind::kCounter:
        for (const auto& [key, c] : fam.counters) {
          out += SeriesHead(name, key) + ' ' +
                 FormatNumber(static_cast<double>(c->value())) + '\n';
        }
        break;
      case Kind::kGauge:
        for (const auto& [key, g] : fam.gauges) {
          out += SeriesHead(name, key) + ' ' +
                 FormatNumber(static_cast<double>(g->value())) + '\n';
        }
        break;
      case Kind::kHistogram:
        for (const auto& [key, h] : fam.histograms) {
          uint64_t cumulative = 0;
          for (size_t i = 0; i < h->bounds().size(); ++i) {
            cumulative += h->bucket_count(i);
            out += SeriesHead(name + "_bucket", key,
                              "le=\"" + FormatNumber(h->bounds()[i]) + "\"") +
                   ' ' + FormatNumber(static_cast<double>(cumulative)) + '\n';
          }
          cumulative += h->bucket_count(h->bounds().size());
          out += SeriesHead(name + "_bucket", key, "le=\"+Inf\"") + ' ' +
                 FormatNumber(static_cast<double>(cumulative)) + '\n';
          out += SeriesHead(name + "_sum", key) + ' ' +
                 FormatNumber(h->sum()) + '\n';
          out += SeriesHead(name + "_count", key) + ' ' +
                 FormatNumber(static_cast<double>(h->count())) + '\n';
        }
        break;
    }
  }
  return out;
}

JsonValue MetricsRegistry::ToJsonValue() const {
  MutexLock lock(&mu_);
  JsonValue root = JsonValue::Object();
  for (const auto& [name, fam] : families_) {
    JsonValue family = JsonValue::Object();
    family.Set("type", fam.kind == Kind::kCounter   ? "counter"
                       : fam.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram");
    JsonValue values = JsonValue::Array();
    switch (fam.kind) {
      case Kind::kCounter:
        for (const auto& [key, c] : fam.counters) {
          JsonValue v = JsonValue::Object();
          v.Set("labels", LabelsToJson(fam.label_sets.at(key)));
          v.Set("value", c->value());
          values.Push(std::move(v));
        }
        break;
      case Kind::kGauge:
        for (const auto& [key, g] : fam.gauges) {
          JsonValue v = JsonValue::Object();
          v.Set("labels", LabelsToJson(fam.label_sets.at(key)));
          v.Set("value", static_cast<int64_t>(g->value()));
          values.Push(std::move(v));
        }
        break;
      case Kind::kHistogram:
        for (const auto& [key, h] : fam.histograms) {
          JsonValue v = JsonValue::Object();
          v.Set("labels", LabelsToJson(fam.label_sets.at(key)));
          v.Set("count", h->count());
          v.Set("sum", h->sum());
          JsonValue buckets = JsonValue::Array();
          for (size_t i = 0; i <= h->bounds().size(); ++i) {
            JsonValue b = JsonValue::Object();
            b.Set("le", i < h->bounds().size()
                            ? JsonValue(h->bounds()[i])
                            : JsonValue("+Inf"));
            b.Set("n", h->bucket_count(i));
            buckets.Push(std::move(b));
          }
          v.Set("buckets", std::move(buckets));
          values.Push(std::move(v));
        }
        break;
    }
    family.Set("values", std::move(values));
    root.Set(name, std::move(family));
  }
  return root;
}

}  // namespace pis
