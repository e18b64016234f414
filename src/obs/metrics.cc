#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace anatomy {
namespace obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// 63 - clz, for v != 0 (portable bit_width - 1).
size_t Log2Floor(uint64_t v) {
  size_t log = 0;
  while (v >>= 1) ++log;
  return log;
}

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. The
/// `anatomy_` prefix guarantees a valid first character; every byte the
/// charset does not admit (dots, dashes, quotes, anything) maps to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "anatomy_";
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline.
std::string PrometheusHelpEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- Histogram --

size_t Histogram::BucketIndex(uint64_t v) {
  if (v == 0) return 0;
  return Log2Floor(v) + 1;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

void Histogram::Record(uint64_t v) {
  Shard& s =
      shards_[internal::ThisThreadShardIndex() % internal::kMetricShards];
  s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  // Relaxed CAS min/max: exact under quiescence, monotone under contention.
  uint64_t seen = s.min.load(std::memory_order_relaxed);
  while (v < seen &&
         !s.min.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = s.max.load(std::memory_order_relaxed);
  while (v > seen &&
         !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const Shard& s : shards_) n += s.count.load(std::memory_order_relaxed);
  return n;
}

uint64_t Histogram::sum() const {
  uint64_t n = 0;
  for (const Shard& s : shards_) n += s.sum.load(std::memory_order_relaxed);
  return n;
}

uint64_t Histogram::min() const {
  uint64_t m = UINT64_MAX;
  for (const Shard& s : shards_) {
    m = std::min(m, s.min.load(std::memory_order_relaxed));
  }
  return m == UINT64_MAX ? 0 : m;
}

uint64_t Histogram::max() const {
  uint64_t m = 0;
  for (const Shard& s : shards_) {
    m = std::max(m, s.max.load(std::memory_order_relaxed));
  }
  return m;
}

uint64_t Histogram::bucket_count(size_t i) const {
  uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.buckets[i].load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::Mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t merged[kNumBuckets];
  uint64_t n = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    merged[i] = bucket_count(i);
    n += merged[i];
  }
  if (n == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(n) + 0.5));
  rank = std::min(rank, n);
  const uint64_t seen_min = min();
  const uint64_t seen_max = max();
  uint64_t before = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t b = merged[i];
    if (b == 0) continue;
    if (before + b >= rank) {
      // Interpolate the rank's position across the bucket's value span,
      // tightened to the observed extremes (every sample is in
      // [seen_min, seen_max], so the clamp is always sound and makes the
      // top quantile land on max instead of the power-of-two bound).
      uint64_t lo = i == 0 ? 0 : BucketUpperBound(i - 1) + 1;
      uint64_t hi = BucketUpperBound(i);
      lo = std::max(lo, seen_min);
      hi = std::min(hi, seen_max);
      if (hi <= lo) return lo;
      const double frac =
          (static_cast<double>(rank - before) - 0.5) / static_cast<double>(b);
      return lo + static_cast<uint64_t>(
                      static_cast<double>(hi - lo) * frac + 0.5);
    }
    before += b;
  }
  return seen_max;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------- MetricRegistry --

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricRegistry::SetHelp(const std::string& name,
                             const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto help_for = [this](const std::string& name) {
    const auto it = help_.find(name);
    return it == help_.end() ? std::string() : it->second;
  };
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, help_for(name), counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, help_for(name), gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramEntry entry;
    entry.name = name;
    entry.help = help_for(name);
    entry.count = histogram->count();
    entry.sum = histogram->sum();
    entry.min = histogram->min();
    entry.max = histogram->max();
    entry.mean = histogram->Mean();
    entry.p50 = histogram->Quantile(0.5);
    entry.p99 = histogram->Quantile(0.99);
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t c = histogram->bucket_count(i);
      if (c > 0) entry.buckets.emplace_back(Histogram::BucketUpperBound(i), c);
    }
    snapshot.histograms.push_back(std::move(entry));
  }
  return snapshot;
}

void MetricRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

// ------------------------------------------------------------- Exporters --

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  size_t width = 8;
  for (const auto& c : counters) width = std::max(width, c.name.size());
  for (const auto& g : gauges) width = std::max(width, g.name.size());
  for (const auto& h : histograms) width = std::max(width, h.name.size());
  auto pad = [&](const std::string& name) {
    return name + std::string(width + 2 - name.size(), ' ');
  };
  for (const auto& c : counters) {
    os << pad(c.name) << c.value << "\n";
  }
  for (const auto& g : gauges) {
    os << pad(g.name) << g.value << "\n";
  }
  for (const auto& h : histograms) {
    os << pad(h.name) << "count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " mean=" << h.mean << " p50~=" << h.p50
       << " p99~=" << h.p99 << " max=" << h.max << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::ostringstream os;
  // HELP precedes TYPE precedes samples, per metric. Unregistered help
  // falls back to the original dotted name, which at least round-trips the
  // pre-sanitization identity through scrapes.
  const auto help_line = [&os](const std::string& name,
                               const std::string& help,
                               const std::string& original) {
    os << "# HELP " << name << " "
       << PrometheusHelpEscape(help.empty() ? original : help) << "\n";
  };
  for (const auto& c : counters) {
    const std::string name = PrometheusName(c.name);
    help_line(name, c.help, c.name);
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    const std::string name = PrometheusName(g.name);
    help_line(name, g.help, g.name);
    os << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const auto& h : histograms) {
    const std::string name = PrometheusName(h.name);
    help_line(name, h.help, h.name);
    os << "# TYPE " << name << " histogram\n";
    uint64_t cumulative = 0;
    for (const auto& [upper, count] : h.buckets) {
      cumulative += count;
      os << name << "_bucket{le=\"" << upper << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
       << name << "_sum " << h.sum << "\n"
       << name << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ",";
    os << "\"" << JsonEscape(counters[i].name) << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i) os << ",";
    os << "\"" << JsonEscape(gauges[i].name) << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i) os << ",";
    os << "\"" << JsonEscape(h.name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"mean\":" << h.mean << ",\"p50\":" << h.p50 << ",\"p99\":" << h.p99
       << ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) os << ",";
      os << "[" << h.buckets[b].first << "," << h.buckets[b].second << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace obs
}  // namespace anatomy
