// Observability metrics: process-wide (or explicitly injected) registry of
// Counter / Gauge / Histogram primitives.
//
// Design constraints, in order:
//   1. Out-of-band: metrics are read-only observers. Nothing in the registry
//      ever feeds back into partitioning, RNG streams, or query answers —
//      enabling or disabling metrics leaves every published table and every
//      estimate bit-identical (asserted by parallel_query_test).
//   2. Thread-safe and TSan-clean: all mutation is relaxed atomics, so any
//      number of worker shards can record into one histogram concurrently
//      with no lost increments (asserted by obs_test's ThreadPool hammer).
//      Per-shard recordings merge deterministically because counter addition
//      is exact and commutative.
//   3. Near-zero cost: an enabled counter increment is one relaxed
//      fetch_add on the calling thread's own shard, so threads counting the
//      same event never share a cache line. Hot paths that need a clock
//      read (per-query latency) gate on MetricsEnabled() so the disabled
//      mode costs one relaxed load.
//
// Naming scheme (see DESIGN.md §7): lowercase dotted paths,
// `<subsystem>.<object>.<what>`, with `_ns` suffixing duration histograms —
// e.g. `storage.pool.hits`, `query.latency_ns`, `anatomize.phase.bucketize_ns`.

#ifndef ANATOMY_OBS_METRICS_H_
#define ANATOMY_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace anatomy {
namespace obs {

/// Process-wide kill switch for metric *recording at instrumented call
/// sites that pay a measurable cost* (clock reads, per-query work). Cheap
/// counter increments are always live. Default: enabled.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

namespace internal {

/// Round-robin shard assignment shared by the sharded metrics: the first
/// kMetricShards recording threads each get a private shard of every
/// counter and histogram; later threads wrap. The index is process-global,
/// so one thread uses the same shard slot in every metric.
inline size_t ThisThreadShardIndex() {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// 16 shards cover the pool sizes the runners use; threads beyond that
/// share shards (still exact, just contended again).
inline constexpr size_t kMetricShards = 16;

}  // namespace internal

/// Monotonically increasing event count, sharded per thread like
/// Histogram: Increment touches only the calling thread's cache line, and
/// value() sums the shards, which is exact.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    shards_[internal::ThisThreadShardIndex() % internal::kMetricShards]
        .value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  Shard shards_[internal::kMetricShards];
};

/// Point-in-time signed level (pool occupancy, buffered tuples, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed (power-of-two) histogram over uint64 samples. Bucket i == 0
/// holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]. That
/// gives ~2x resolution over the full 64-bit range in 65 fixed buckets —
/// coarse, but allocation-free and mergeable by pure addition.
///
/// Internally sharded for write scalability: each recording thread lands on
/// one of kMetricShards cache-line-padded shards (a round-robin thread_local
/// index), so concurrent Record() calls from different threads don't
/// ping-pong the same counter lines. Readers merge the shards — addition is
/// exact and commutative, so every accessor returns the same totals as the
/// unsharded histogram did, and the merged distribution is independent of
/// which thread recorded what.
///
/// Quantile() linearly interpolates within the winning bucket (clamped to
/// the observed min/max), so reported p50/p99 are estimates of the actual
/// quantile value instead of power-of-two bucket upper bounds.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  /// Bucket index a value lands in (0 for 0, else 64 - countl_zero(v)).
  static size_t BucketIndex(uint64_t v);

  /// Largest value bucket i admits (inclusive). Bucket 64 saturates at
  /// UINT64_MAX.
  static uint64_t BucketUpperBound(size_t i);

  void Record(uint64_t v);

  uint64_t count() const;
  uint64_t sum() const;
  /// 0 when the histogram is empty.
  uint64_t min() const;
  uint64_t max() const;
  uint64_t bucket_count(size_t i) const;
  double Mean() const;

  /// Sub-bucket linear interpolation at the q-quantile (q clamped to
  /// [0, 1]): the rank's position inside its bucket maps linearly onto the
  /// bucket's value span, tightened to the observed [min, max]. Midpoint
  /// convention — rank r of b in-bucket samples sits at fraction
  /// (r - 1/2) / b — so a single-sample bucket reports its center and the
  /// estimate is monotone in q. Returns 0 when empty.
  uint64_t Quantile(double q) const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    /// UINT64_MAX sentinel while empty.
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };

  Shard shards_[internal::kMetricShards];
};

/// One consistent-enough read of a registry (each metric is read atomically;
/// cross-metric skew is possible while writers are live). Sorted by name.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::string help;
    int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::string help;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0.0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    /// (inclusive upper bound, count) for every non-empty bucket, ascending.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  /// Human-readable aligned table (the --metrics_out default).
  std::string ToText() const;
  /// Prometheus text exposition (names have dots mapped to underscores and
  /// an `anatomy_` prefix; histograms emit cumulative `_bucket{le=...}`).
  std::string ToPrometheus() const;
  std::string ToJson() const;
};

/// Named metric registry. `Global()` is the process-wide instance every
/// built-in instrumentation site records into; tests and embedders that want
/// isolation construct their own and inject it (e.g. BufferPool's registry
/// parameter). Getters are get-or-create and return pointers that remain
/// valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Attaches HELP text (shared across the metric kinds for `name`) emitted
  /// by ToPrometheus(). Idempotent; last writer wins.
  void SetHelp(const std::string& name, const std::string& help);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (the metrics stay registered).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace obs
}  // namespace anatomy

#endif  // ANATOMY_OBS_METRICS_H_
