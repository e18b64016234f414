// Tests for the observability layer: metric primitives and their exact
// semantics, registry get-or-create behavior, snapshot exporters, trace
// recording/export, and a ThreadPool hammer asserting that relaxed-atomic
// recording loses nothing under contention (the property the instrumented
// hot paths rely on).

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "obs/trace.h"

namespace anatomy {
namespace obs {
namespace {

// ----------------------------------------------------------------- Counter --

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ShardedIncrementsAreExactInSnapshotAndExport) {
  // More threads than shards, so some share a shard; every increment must
  // still land exactly once in value(), the snapshot and the exposition.
  constexpr size_t kThreads = 20;
  constexpr uint64_t kPerThread = 50000;
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("sharded.count");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment(t + 1);
    });
  }
  for (std::thread& th : threads) th.join();
  const uint64_t expected = kPerThread * kThreads * (kThreads + 1) / 2;
  EXPECT_EQ(counter->value(), expected);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, expected);
  EXPECT_NE(snapshot.ToPrometheus().find("anatomy_sharded_count " +
                                         std::to_string(expected) + "\n"),
            std::string::npos);

  registry.ResetAll();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(registry.Snapshot().counters[0].value, 0u);
  counter->Increment(7);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

// ------------------------------------------------------------------- Gauge --

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(10);
  g.Add(-15);
  EXPECT_EQ(g.value(), -5);
  g.Add(5);
  EXPECT_EQ(g.value(), 0);
  g.Set(7);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

// --------------------------------------------------------------- Histogram --

TEST(HistogramTest, BucketIndexBoundaries) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  for (size_t k = 1; k < 64; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(pow), k + 1) << "v = 2^" << k;
    EXPECT_EQ(Histogram::BucketIndex(pow - 1), k) << "v = 2^" << k << " - 1";
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketUpperBoundIsInclusiveAndTight) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
  // Every value is admitted by its own bucket and rejected by the previous.
  for (uint64_t v : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1000},
                     uint64_t{1} << 40, UINT64_MAX}) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(i));
    EXPECT_GT(v, Histogram::BucketUpperBound(i - 1));
  }
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty: sentinel mapped to 0
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{5}, uint64_t{1000}}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 251.5);
  EXPECT_EQ(h.bucket_count(0), 1u);                           // {0}
  EXPECT_EQ(h.bucket_count(1), 1u);                           // {1}
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(5)), 1u);   // [4, 7]
  EXPECT_EQ(h.bucket_count(Histogram::BucketIndex(1000)), 1u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);  // empty
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  // Cumulative counts by bucket: {1}:1, {2,3}:3, {4..7}:7, {8..15}:15,
  // {16..31}:31, {32..63}:63, {64..127}:100. The quantile interpolates
  // linearly within the winning bucket (midpoint convention), and the
  // bucket span is clamped to the observed [min, max] — so a uniform
  // 1..100 recording recovers the exact order statistics instead of
  // reporting every quantile as a power-of-two upper bound.
  EXPECT_EQ(h.Quantile(0.5), 50u);
  EXPECT_EQ(h.Quantile(0.99), 99u);
  // Out-of-range q clamps; q = 0 still means "rank 1" (the minimum).
  EXPECT_EQ(h.Quantile(-1.0), 1u);
  EXPECT_EQ(h.Quantile(2.0), 100u);
  // Monotone in q.
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, QuantileSingleValueIsExact) {
  // All mass on one value: every quantile must report that value exactly,
  // because the bucket span clamps to [min, max] = [42, 42].
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(42);
  EXPECT_EQ(h.Quantile(0.0), 42u);
  EXPECT_EQ(h.Quantile(0.5), 42u);
  EXPECT_EQ(h.Quantile(0.99), 42u);
  EXPECT_EQ(h.Quantile(1.0), 42u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(0);
  h.Record(12345);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u) << "bucket " << i;
  }
  // Min tracking still works after a reset (the sentinel was restored).
  h.Record(9);
  EXPECT_EQ(h.min(), 9u);
  EXPECT_EQ(h.max(), 9u);
}

// ---------------------------------------------------------------- Registry --

TEST(MetricRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* c1 = registry.GetCounter("a.b");
  Counter* c2 = registry.GetCounter("a.b");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, registry.GetCounter("a.c"));
  // The three metric kinds are separate namespaces.
  Gauge* g = registry.GetGauge("a.b");
  Histogram* h = registry.GetHistogram("a.b");
  EXPECT_EQ(g, registry.GetGauge("a.b"));
  EXPECT_EQ(h, registry.GetHistogram("a.b"));
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry registry;
  registry.GetCounter("z.last")->Increment(2);
  registry.GetCounter("a.first")->Increment(1);
  registry.GetGauge("mid")->Set(-7);
  Histogram* h = registry.GetHistogram("lat_ns");
  h->Record(1);
  h->Record(2);
  h->Record(3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.counters[1].name, "z.last");
  EXPECT_EQ(snapshot.counters[1].value, 2u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -7);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const auto& entry = snapshot.histograms[0];
  EXPECT_EQ(entry.count, 3u);
  EXPECT_EQ(entry.sum, 6u);
  EXPECT_EQ(entry.min, 1u);
  EXPECT_EQ(entry.max, 3u);
  EXPECT_DOUBLE_EQ(entry.mean, 2.0);
  // Only non-empty buckets appear, as (upper bound, count), ascending.
  ASSERT_EQ(entry.buckets.size(), 2u);
  EXPECT_EQ(entry.buckets[0], (std::pair<uint64_t, uint64_t>{1, 1}));
  EXPECT_EQ(entry.buckets[1], (std::pair<uint64_t, uint64_t>{3, 2}));
}

TEST(MetricRegistryTest, ResetAllZeroesButKeepsMetricsRegistered) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("c");
  c->Increment(5);
  registry.GetHistogram("h")->Record(9);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);  // same object, still usable
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 0u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 0u);
}

TEST(MetricRegistryTest, GlobalIsProcessWideAndEnabledByDefault) {
  EXPECT_TRUE(MetricsEnabled());
  EXPECT_EQ(&MetricRegistry::Global(), &MetricRegistry::Global());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
}

// --------------------------------------------------------------- Exporters --

MetricRegistry* MakeExportRegistry() {
  auto* registry = new MetricRegistry();
  registry->GetCounter("storage.pool.hits")->Increment(3);
  registry->GetGauge("pool.occupancy")->Set(-2);
  Histogram* h = registry->GetHistogram("query.latency_ns");
  h->Record(1);
  h->Record(2);
  h->Record(3);
  return registry;
}

TEST(ExporterTest, TextTableListsEveryMetric) {
  std::unique_ptr<MetricRegistry> registry(MakeExportRegistry());
  const std::string text = registry->Snapshot().ToText();
  EXPECT_NE(text.find("storage.pool.hits"), std::string::npos);
  EXPECT_NE(text.find("pool.occupancy"), std::string::npos);
  EXPECT_NE(text.find("-2"), std::string::npos);
  EXPECT_NE(text.find("count=3 sum=6 min=1 mean=2 p50~=2 p99~=3 max=3"),
            std::string::npos);
}

TEST(ExporterTest, PrometheusExposition) {
  std::unique_ptr<MetricRegistry> registry(MakeExportRegistry());
  const std::string prom = registry->Snapshot().ToPrometheus();
  // Dots map to underscores under an anatomy_ prefix, with TYPE comments.
  EXPECT_NE(prom.find("# TYPE anatomy_storage_pool_hits counter\n"
                      "anatomy_storage_pool_hits 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE anatomy_pool_occupancy gauge\n"
                      "anatomy_pool_occupancy -2\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end with the +Inf catch-all.
  EXPECT_NE(prom.find("anatomy_query_latency_ns_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("anatomy_query_latency_ns_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("anatomy_query_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("anatomy_query_latency_ns_sum 6\n"), std::string::npos);
  EXPECT_NE(prom.find("anatomy_query_latency_ns_count 3\n"),
            std::string::npos);
}

// A scraper-style conformance pass over the whole exposition: line grammar,
// metric-name charset, HELP-before-TYPE ordering, help escaping, and
// histogram bucket monotonicity — checked structurally, not by substring.
TEST(ExporterTest, PrometheusExpositionConformance) {
  MetricRegistry registry;
  // Hostile name and help text: must be sanitized/escaped on the way out.
  registry.GetCounter("weird name{![]}")->Increment(7);
  registry.SetHelp("weird name{![]}", "has \"quotes\", a \\slash and\na newline");
  registry.GetCounter("plain.counter")->Increment(1);
  registry.GetGauge("a.gauge")->Set(-3);
  Histogram* h = registry.GetHistogram("lat.ns");
  h->Record(1);
  h->Record(2);
  h->Record(1000);
  const std::string prom = registry.Snapshot().ToPrometheus();

  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    if (!(std::isalpha(static_cast<unsigned char>(name[0])) ||
          name[0] == '_' || name[0] == ':')) {
      return false;
    }
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')) {
        return false;
      }
    }
    return true;
  };
  // Sample-line family: histogram series append _bucket/_sum/_count to the
  // family name that TYPE declared.
  const auto family_of = [](const std::string& name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };

  std::set<std::string> helped;
  std::map<std::string, std::string> typed;  // family -> type
  std::map<std::string, std::vector<std::pair<double, uint64_t>>> buckets;
  std::map<std::string, uint64_t> series_count;
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_help = line[2] == 'H';
      std::istringstream comment(line.substr(7));
      std::string name;
      comment >> name;
      EXPECT_TRUE(valid_name(name)) << line;
      if (is_help) {
        // HELP precedes TYPE for every family, and the help text reaches
        // the scraper as one line with no raw control characters.
        EXPECT_EQ(typed.count(name), 0u) << line;
        helped.insert(name);
        for (char c : line) {
          EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << line;
        }
      } else {
        std::string type;
        comment >> type;
        EXPECT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
        EXPECT_EQ(helped.count(name), 1u) << "TYPE without HELP: " << line;
        typed[name] = type;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    const size_t brace = line.find('{');
    const size_t name_end = std::min(brace, line.find(' '));
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_TRUE(valid_name(name)) << line;
    const std::string family = family_of(name);
    ASSERT_EQ(typed.count(family), 1u) << "sample before TYPE: " << line;

    std::string le;
    size_t value_begin = name_end;
    if (brace != std::string::npos) {
      const size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string labels = line.substr(brace + 1, close - brace - 1);
      ASSERT_EQ(labels.rfind("le=\"", 0), 0u) << line;
      ASSERT_EQ(labels.back(), '"') << line;
      le = labels.substr(4, labels.size() - 5);
      value_begin = close + 1;
    }
    ASSERT_EQ(line[value_begin], ' ') << line;
    const std::string value_text = line.substr(value_begin + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparsable value: " << line;
    series_count[name] = static_cast<uint64_t>(value);
    if (!le.empty()) {
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      buckets[family].push_back({bound, static_cast<uint64_t>(value)});
    }
  }

  // Everything we registered came out, under sanitized names.
  EXPECT_EQ(typed.count("anatomy_weird_name_____"), 1u);
  EXPECT_EQ(series_count["anatomy_weird_name_____"], 7u);
  EXPECT_EQ(typed["anatomy_plain_counter"], "counter");
  EXPECT_EQ(typed["anatomy_a_gauge"], "gauge");
  EXPECT_EQ(typed["anatomy_lat_ns"], "histogram");
  // Histogram buckets: strictly ascending bounds, cumulative counts
  // nondecreasing, +Inf last and equal to _count.
  const auto& lat = buckets["anatomy_lat_ns"];
  ASSERT_GE(lat.size(), 2u);
  for (size_t i = 1; i < lat.size(); ++i) {
    EXPECT_LT(lat[i - 1].first, lat[i].first);
    EXPECT_LE(lat[i - 1].second, lat[i].second);
  }
  EXPECT_TRUE(std::isinf(lat.back().first));
  EXPECT_EQ(lat.back().second, 3u);
  EXPECT_EQ(series_count["anatomy_lat_ns_count"], 3u);
  EXPECT_EQ(series_count["anatomy_lat_ns_sum"], 1003u);
}

TEST(ExporterTest, JsonIsBalancedAndEscaped) {
  std::unique_ptr<MetricRegistry> registry(MakeExportRegistry());
  registry->GetCounter("weird\"name")->Increment();
  const std::string json = registry->Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"weird\\\"name\":1"), std::string::npos);
  EXPECT_NE(json.find("\"query.latency_ns\":{\"count\":3,\"sum\":6"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[1,1],[3,2]]"), std::string::npos);
}

// ------------------------------------------------------------- ScopedTimer --

TEST(ScopedTimerTest, RecordsOnceIntoTheHistogram) {
  Histogram h;
  {
    ScopedTimer<Histogram> timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimerTest, NullRecorderIsDisarmed) {
  // Must not crash or record anywhere; also never reads the clock.
  ScopedTimer<Histogram> timer(nullptr);
}

// ----------------------------------------------------------------- Tracing --

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  ASSERT_FALSE(recorder.enabled());  // off is the default
  {
    ScopedSpan span("never", "test");
    ScopedSpan early("never2", "test");
    early.End();
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceTest, EnabledSpanRecordsOnDestruction) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    ScopedSpan span("unit.work", "test");
  }
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(TraceTest, EndIsIdempotent) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    ScopedSpan span("once", "test");
    span.End();
    span.End();  // second End and the destructor must not re-record
  }
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(TraceTest, RingWraparoundCountsDrops) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const uint64_t extra = 100;
  for (uint64_t i = 0; i < kTraceRingCapacity + extra; ++i) {
    recorder.Record("wrap", "test", i, 1);
  }
  EXPECT_EQ(recorder.event_count(), kTraceRingCapacity);
  EXPECT_EQ(recorder.dropped(), extra);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceTest, ChromeJsonExportIsWellFormed) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Record("alpha", "test", 1000, 2000);
  recorder.Record("beta", "test", 5000, 500);
  const std::string json = recorder.ExportChromeJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  // Complete events ("X" phase) with microsecond timestamps.
  EXPECT_NE(json.find("\"name\":\"alpha\",\"cat\":\"test\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":1,\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  recorder.Clear();
}

TEST(TraceTest, SpansFromPoolThreadsAllRetained) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  const size_t kSpans = 1000;
  ThreadPool pool(4);
  pool.ParallelFor(kSpans, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ScopedSpan span("pooled", "test");
    }
  });
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.event_count(), kSpans);
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.Clear();
}

// -------------------------------------------------- Concurrency (hammer) --

TEST(ObsHammerTest, RelaxedAtomicsLoseNothingUnderContention) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 100000;
  constexpr size_t kTotal = kThreads * kPerThread;
  MetricRegistry registry;
  ThreadPool pool(kThreads);
  ASSERT_EQ(pool.num_threads(), kThreads);
  pool.ParallelFor(kTotal, [&](size_t, size_t begin, size_t end) {
    // Get-or-create races with the other shards; all must agree on the
    // object behind each name.
    Counter* counter = registry.GetCounter("hammer.count");
    Gauge* gauge = registry.GetGauge("hammer.level");
    Histogram* histogram = registry.GetHistogram("hammer.dist");
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
      gauge->Add(1);
      histogram->Record((i & 7) + 1);  // values 1..8, kTotal/8 each
    }
  });
  EXPECT_EQ(registry.GetCounter("hammer.count")->value(), kTotal);
  EXPECT_EQ(registry.GetGauge("hammer.level")->value(),
            static_cast<int64_t>(kTotal));
  Histogram* histogram = registry.GetHistogram("hammer.dist");
  EXPECT_EQ(histogram->count(), kTotal);
  // Each value v in 1..8 occurs exactly kTotal/8 times: sum = avg * total.
  EXPECT_EQ(histogram->sum(), kTotal / 8 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
  EXPECT_EQ(histogram->min(), 1u);
  EXPECT_EQ(histogram->max(), 8u);
  // Per-bucket counts are exact too: {1}:N/8, {2,3}:N/4, {4..7}:N/2, {8}:N/8.
  EXPECT_EQ(histogram->bucket_count(1), kTotal / 8);
  EXPECT_EQ(histogram->bucket_count(2), kTotal / 4);
  EXPECT_EQ(histogram->bucket_count(3), kTotal / 2);
  EXPECT_EQ(histogram->bucket_count(4), kTotal / 8);
}

// ---------------------------------------------------------- Causal spans --

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            const char* name) {
  for (const TraceEvent& event : events) {
    if (std::string(event.name) == name) return &event;
  }
  return nullptr;
}

TEST(TraceCausalityTest, NestedSpansShareTraceAndChainParents) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    ScopedSpan root("c.root", "test");
    {
      ScopedSpan child("c.child", "test");
      ScopedSpan grandchild("c.grandchild", "test");
      grandchild.End();
    }
    ScopedSpan sibling("c.sibling", "test");
  }
  {
    ScopedSpan other("c.other_trace", "test");
  }
  recorder.SetEnabled(false);

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  const TraceEvent* root = FindEvent(events, "c.root");
  const TraceEvent* child = FindEvent(events, "c.child");
  const TraceEvent* grandchild = FindEvent(events, "c.grandchild");
  const TraceEvent* sibling = FindEvent(events, "c.sibling");
  const TraceEvent* other = FindEvent(events, "c.other_trace");
  ASSERT_TRUE(root && child && grandchild && sibling && other);

  // One trace: every span under c.root carries its trace_id and chains
  // parent_id to the enclosing span; the root itself is parentless.
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(grandchild->trace_id, root->trace_id);
  EXPECT_EQ(grandchild->parent_id, child->span_id);
  EXPECT_EQ(sibling->trace_id, root->trace_id);
  EXPECT_EQ(sibling->parent_id, root->span_id);
  // A top-level span after the root ends starts a fresh trace.
  EXPECT_NE(other->trace_id, root->trace_id);
  EXPECT_EQ(other->parent_id, 0u);
  // Span ids are unique across all five.
  std::set<uint64_t> span_ids;
  for (const TraceEvent& event : events) span_ids.insert(event.span_id);
  EXPECT_EQ(span_ids.size(), 5u);
  recorder.Clear();
}

TEST(TraceCausalityTest, SpanExposesIdsForContextHandoff) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  ScopedSpan span("handoff", "test");
  EXPECT_NE(span.trace_id(), 0u);
  EXPECT_NE(span.span_id(), 0u);
  span.End();
  recorder.SetEnabled(false);
  recorder.Clear();
  // Disabled spans carry no identity: downstream contexts see zeros and
  // stay no-ops.
  ScopedSpan dark("handoff.dark", "test");
  EXPECT_EQ(dark.trace_id(), 0u);
  EXPECT_EQ(dark.span_id(), 0u);
}

// ------------------------------------------------------------ Trace export --

TEST(TraceExportTest, ArgsAndIdsAppearInChromeJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    ScopedSpan span("argy", "test");
    span.AddArg("rows", 42);
    span.AddArg("ok", 1);
  }
  recorder.SetEnabled(false);
  const std::string json = recorder.ExportChromeJson();
  // The ids block plus user args round-trip through the export (the
  // validator and Perfetto both read them back from args).
  EXPECT_NE(json.find("\"id\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":1"), std::string::npos);
  recorder.Clear();
}

TEST(TraceExportTest, VirtualLaneEventsRenderUnderVirtualPid) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  TraceEvent event;
  event.name = "virt.query";
  event.category = "test";
  event.start_ns = 5000;
  event.dur_ns = 1000;
  event.trace_id = TraceRecorder::NewId();
  event.span_id = TraceRecorder::NewId();
  event.virtual_time = true;
  event.lane = 0;
  recorder.RecordEvent(event);
  event.name = "virt.node";
  event.span_id = TraceRecorder::NewId();
  event.lane = 3;
  recorder.RecordEvent(event);

  const std::string json = recorder.ExportChromeJson();
  // Virtual events live under kVirtualPid with the lane as tid, and each
  // populated lane gets a human-readable thread name.
  EXPECT_NE(json.find("\"pid\":2,\"tid\":0,\"ts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"tid\":3,\"ts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"args\":{\"name\":\"anatomy-virtual\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node-2\""), std::string::npos);
  recorder.Clear();
}

TEST(TraceExportTest, RepeatedExportIsByteStable) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  ThreadPool pool(4);
  pool.ParallelFor(64, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ScopedSpan span("stable", "test");
    }
  });
  recorder.SetEnabled(false);
  // pid/tid assignment and event order are stable across exports of the
  // same recorder — the merged file can be regenerated byte-identically.
  const std::string first = recorder.ExportChromeJson();
  const std::string second = recorder.ExportChromeJson();
  EXPECT_EQ(first, second);
  recorder.Clear();
}

TEST(TraceHammerTest, EightThreadWraparoundWhileExporting) {
  constexpr size_t kThreads = 8;
  // Over capacity per task, so rings wrap however tasks land on workers.
  constexpr size_t kPerTask = kTraceRingCapacity + 100;
  TraceRecorder recorder;  // private instance: the hammer owns its rings
  ThreadPool pool(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&recorder, t] {
      for (size_t i = 0; i < kPerTask; ++i) {
        recorder.Record("hammer", "test", t * kPerTask + i, 1);
      }
    });
  }
  // Export while the rings are being written: complete events are never
  // torn (this is the TSan race target).
  for (int i = 0; i < 20; ++i) {
    const std::string live = recorder.ExportChromeJson();
    ASSERT_EQ(live.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
    ASSERT_EQ(live.back(), '}');
  }
  pool.Wait();

  constexpr uint64_t kTotal = kThreads * kPerTask;
  // Oldest-overwrite accounting: nothing vanishes silently.
  EXPECT_EQ(recorder.event_count() + recorder.dropped(), kTotal);
  EXPECT_LE(recorder.event_count(), kThreads * kTraceRingCapacity);
  EXPECT_GE(recorder.dropped(), kThreads * 100u);
  EXPECT_EQ(recorder.Snapshot().size(), recorder.event_count());
}

// ------------------------------------------------------- SlidingQuantile --

TEST(SlidingQuantileTest, NearestRankIsExactOnAFullWindow) {
  SlidingQuantile sq(100);
  EXPECT_EQ(sq.Quantile(0.5), 0u);  // empty: defined as 0
  // Insert 1..100 shuffled-by-stride so order doesn't matter.
  for (uint64_t i = 0; i < 100; ++i) sq.Record((i * 37) % 100 + 1);
  EXPECT_TRUE(sq.full());
  EXPECT_EQ(sq.count(), 100u);
  // rank = ceil(q * (count - 1)), 0-based over the sorted samples 1..100.
  EXPECT_EQ(sq.Quantile(0.0), 1u);
  EXPECT_EQ(sq.Quantile(0.5), 51u);   // ceil(0.5 * 99) = 50 -> value 51
  EXPECT_EQ(sq.Quantile(0.95), 96u);  // ceil(0.95 * 99) = 95 -> value 96
  EXPECT_EQ(sq.Quantile(0.99), 100u);  // ceil(0.99 * 99) = 99 -> value 100
  EXPECT_EQ(sq.Quantile(1.0), 100u);
}

TEST(SlidingQuantileTest, OldSamplesAgeOutOfTheRing) {
  SlidingQuantile sq(4);
  // A giant early stall...
  sq.Record(1'000'000);
  for (int i = 0; i < 3; ++i) sq.Record(10);
  EXPECT_EQ(sq.Quantile(1.0), 1'000'000u);
  // ...is forgotten after W more samples, unlike a cumulative histogram.
  for (int i = 0; i < 4; ++i) sq.Record(20);
  EXPECT_TRUE(sq.full());
  EXPECT_EQ(sq.count(), 4u);
  EXPECT_EQ(sq.Quantile(1.0), 20u);
  EXPECT_EQ(sq.Quantile(0.0), 20u);
}

TEST(SlidingQuantileTest, PartialWindowUsesOnlyRetainedSamples) {
  SlidingQuantile sq(64);
  sq.Record(7);
  EXPECT_FALSE(sq.full());
  EXPECT_EQ(sq.count(), 1u);
  EXPECT_EQ(sq.Quantile(0.99), 7u);  // one sample is every quantile
  sq.Record(3);
  EXPECT_EQ(sq.Quantile(0.0), 3u);
  EXPECT_EQ(sq.Quantile(1.0), 7u);
}

}  // namespace
}  // namespace obs
}  // namespace anatomy
