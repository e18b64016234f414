// Group-clustered query kernel vs the scalar reference path: single- and
// multi-threaded COUNT/SUM throughput on a range-predicate workload
// (n = 500k, qd = 4 by default — the acceptance configuration).
//
// Every timed pass self-checks: kernel estimates must match the scalar
// reference within 1e-9 relative. Any violation exits nonzero.
//
// Results are also written as JSON (--json_out, default
// BENCH_query_kernels.json): one record per (aggregate, path, threads) with
// queries/s, rows/s, speedup vs the same path at 1 thread, and the p50/p99
// of the `query.latency_ns` histogram for exactly that run (the histogram
// is reset before each timed section). Two more gates exit nonzero:
//   - kernel COUNT at 8 worker threads must reach 3 x min(8, hardware
//     threads) / 8 times its 1-thread rate (3x on an 8-thread host; the
//     artifact records "hardware_threads" and the bar it was held to);
//   - after warmup, the one-query Estimate() replay loop must make zero
//     heap allocations (counted by the bench's operator new hook, which
//     sanitizer builds compile out).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "anatomy/anatomizer.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/printer.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "query/anatomy_estimator.h"
#include "workload/parallel_runner.h"
#include "workload/workload.h"

namespace anatomy {
namespace bench {
namespace {

struct KernelBenchConfig {
  int64_t n = 500000;
  int64_t queries = 256;
  int64_t qd = 4;
  double s = 0.05;
  int64_t l = 10;
  int64_t seed = 42;
  /// Passes over the workload per timed section.
  int64_t replays = 12;
  bool range_predicates = true;
  std::string json_out = "BENCH_query_kernels.json";
};

struct PathSpec {
  const char* name;
  EstimatorOptions options;
};

struct TimedRun {
  std::string aggregate;  // "count" or "sum"
  std::string path;       // "scalar" / "kernel"
  size_t threads = 0;
  double qps = 0.0;
  double rows_per_s = 0.0;
  /// Thread-scaling column: qps over the same (aggregate, path) at 1 thread.
  double speedup_vs_1t = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

void Run(const KernelBenchConfig& config) {
  const unsigned hardware_threads = WarnIfSingleThreaded("bench_query_kernels");
  const Table census =
      GenerateCensus(static_cast<RowId>(config.n),
                     static_cast<uint64_t>(config.seed));
  ExperimentDataset dataset = ValueOrDie(
      MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5));
  const Microdata& md = dataset.microdata;

  // Only anatomy is benchmarked here; skip Mondrian entirely.
  Anatomizer anatomizer(AnatomizerOptions{
      .l = static_cast<int>(config.l),
      .seed = static_cast<uint64_t>(config.seed)});
  Partition partition = ValueOrDie(anatomizer.ComputePartition(md));
  AnatomizedTables anatomized = ValueOrDie(AnatomizedTables::Build(md, partition));

  WorkloadOptions wl;
  wl.qd = static_cast<int>(config.qd);
  wl.s = config.s;
  wl.num_queries = static_cast<size_t>(config.queries);
  wl.seed = static_cast<uint64_t>(config.seed) + 1;
  wl.range_predicates = config.range_predicates;
  WorkloadGenerator generator = ValueOrDie(WorkloadGenerator::Create(md, wl));
  std::vector<CountQuery> queries;
  queries.reserve(wl.num_queries);
  for (size_t i = 0; i < wl.num_queries; ++i) queries.push_back(generator.Next());

  std::vector<AggregateQuery> sum_queries(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    sum_queries[i].predicates = queries[i];
    sum_queries[i].kind = AggregateKind::kSum;
    sum_queries[i].measure_qi = 0;
  }

  EstimatorOptions scalar_options;
  scalar_options.mode = KernelMode::kScalar;
  const PathSpec paths[] = {
      {"scalar", scalar_options},
      {"kernel", EstimatorOptions{}},
  };

  obs::Histogram* latency_ns =
      obs::MetricsEnabled()
          ? obs::MetricRegistry::Global().GetHistogram("query.latency_ns")
          : nullptr;

  const size_t kThreadCounts[] = {1, 4, 8};
  const double total_queries =
      static_cast<double>(queries.size()) * static_cast<double>(config.replays);

  std::vector<TimedRun> runs;
  // reference[aggregate] at 1 thread, per path, for the self-check and the
  // printed single-thread speedups.
  std::vector<double> count_ref_scalar;
  std::vector<double> sum_ref_scalar;
  double count_qps_1t[2] = {0, 0};
  double sum_qps_1t[2] = {0, 0};

  TablePrinter printer({"aggregate", "path", "threads", "queries/s", "rows/s",
                        "vs 1t", "p50 (us)", "p99 (us)"});
  for (size_t p = 0; p < 2; ++p) {
    AnatomyEstimator estimator(anatomized, paths[p].options);
    AnatomyAggregateEstimator agg_estimator(anatomized, paths[p].options);
    for (size_t threads : kThreadCounts) {
      ParallelRunner runner(ParallelRunnerOptions{.num_threads = threads});
      for (int aggregate = 0; aggregate < 2; ++aggregate) {
        const bool is_sum = aggregate == 1;
        const auto pass = [&]() -> std::vector<double> {
          if (!is_sum) return runner.EstimateAll(estimator, queries);
          return runner.Map(
              queries, [&](const CountQuery& q, EstimatorScratch& scratch,
                           Rng&) {
                const size_t i = static_cast<size_t>(&q - queries.data());
                return agg_estimator.Estimate(sum_queries[i], scratch);
              });
        };
        std::vector<double> estimates = pass();  // warm the scratches
        if (latency_ns != nullptr) latency_ns->Reset();
        const double seconds = TimeSeconds([&] {
          for (int64_t r = 0; r < config.replays; ++r) estimates = pass();
        });

        TimedRun run;
        run.aggregate = is_sum ? "sum" : "count";
        run.path = paths[p].name;
        run.threads = threads;
        run.qps = total_queries / seconds;
        run.rows_per_s = run.qps * static_cast<double>(config.n);
        if (threads == 1) (is_sum ? sum_qps_1t : count_qps_1t)[p] = run.qps;
        run.speedup_vs_1t = run.qps / (is_sum ? sum_qps_1t : count_qps_1t)[p];
        if (latency_ns != nullptr && latency_ns->count() > 0) {
          run.p50_ns = latency_ns->Quantile(0.50);
          run.p99_ns = latency_ns->Quantile(0.99);
        }
        runs.push_back(run);
        printer.AddRow({run.aggregate, run.path, std::to_string(threads),
                        FormatDouble(run.qps, 0),
                        FormatDouble(run.rows_per_s, 0),
                        FormatDouble(run.speedup_vs_1t, 2),
                        FormatDouble(static_cast<double>(run.p50_ns) / 1e3, 1),
                        FormatDouble(static_cast<double>(run.p99_ns) / 1e3, 1)});

        if (threads == 1) {
          std::vector<double>& scalar_ref =
              is_sum ? sum_ref_scalar : count_ref_scalar;
          if (p == 0) scalar_ref = estimates;
          // The kernel must match the scalar reference within 1e-9.
          const double rel = MaxRelDiff(scalar_ref, estimates);
          if (rel > 1e-9) {
            std::fprintf(stderr,
                         "FATAL: %s/%s diverges from scalar reference "
                         "(max relative diff %.3e > 1e-9)\n",
                         run.aggregate.c_str(), run.path.c_str(), rel);
            std::exit(1);
          }
        }
      }
    }
  }

  // ---- Steady-state allocation audit: after warmup, the single-arg
  // Estimate() replay loop (pool-leased scratch) must make zero heap
  // allocations — every container has reached its capacity-retained
  // steady state. ----
  uint64_t steady_mallocs = 0;
  double steady_sink = 0.0;
  {
    AnatomyEstimator steady(anatomized);
    for (int warm = 0; warm < 2; ++warm) {
      for (const CountQuery& q : queries) steady_sink += steady.Estimate(q);
    }
    const uint64_t malloc0 = MallocCount();
    for (int64_t r = 0; r < config.replays; ++r) {
      for (const CountQuery& q : queries) steady_sink += steady.Estimate(q);
    }
    steady_mallocs = MallocCount() - malloc0;
    if (MallocCountAvailable() && steady_mallocs != 0) {
      std::fprintf(stderr,
                   "FATAL: steady-state replay loop made %llu heap "
                   "allocations (expected 0) — scratch reuse has regressed\n",
                   static_cast<unsigned long long>(steady_mallocs));
      std::exit(1);
    }
  }

  std::printf(
      "Query kernels: %lld queries (x%lld replays), n = %lld, OCC-5, "
      "qd = %lld, s = %g, %s predicates, %u hardware threads\n",
      static_cast<long long>(config.queries),
      static_cast<long long>(config.replays), static_cast<long long>(config.n),
      static_cast<long long>(config.qd), config.s,
      config.range_predicates ? "range" : "point", hardware_threads);
  printer.Print();

  // ---- Thread-scaling gate: 3x at 8 workers on 8 hardware threads, the
  // same share of it on fewer. ----
  double count_scaling_8t = 0.0;
  for (const TimedRun& r : runs) {
    if (r.aggregate == "count" && r.path == "kernel" && r.threads == 8) {
      count_scaling_8t = r.speedup_vs_1t;
    }
  }
  const double scaling_required =
      3.0 * static_cast<double>(std::min(8u, hardware_threads)) / 8.0;
  if (count_scaling_8t < scaling_required) {
    std::fprintf(stderr,
                 "FATAL: kernel COUNT 8-thread throughput is only %.2fx the "
                 "1-thread rate on a %u-thread host (>= %.2fx required) — "
                 "the query path has re-contended\n",
                 count_scaling_8t, hardware_threads, scaling_required);
    std::exit(1);
  }
  std::printf("kernel COUNT 8-thread scaling %.2fx (>= %.2fx required): OK\n",
              count_scaling_8t, scaling_required);
  std::printf(
      "\nsingle-thread speedup of the kernel over scalar: COUNT %.2fx, "
      "SUM %.2fx\n",
      count_qps_1t[1] / count_qps_1t[0], sum_qps_1t[1] / sum_qps_1t[0]);

  std::printf(
      "steady-state replay (%lld passes, checksum %.3e): %llu heap "
      "allocations (0 required%s)\n",
      static_cast<long long>(config.replays), steady_sink,
      static_cast<unsigned long long>(steady_mallocs),
      MallocCountAvailable() ? ", enforced"
                             : "; hook unavailable in this build");

  if (!config.json_out.empty()) {
    std::ofstream os(config.json_out);
    if (!os) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   config.json_out.c_str());
      return;
    }
    char buf[512];
    os << "{\n";
    std::snprintf(buf, sizeof buf,
                  "  \"bench\": \"query_kernels\",\n"
                  "  \"n\": %lld,\n  \"queries\": %lld,\n  \"qd\": %lld,\n"
                  "  \"s\": %g,\n  \"l\": %lld,\n  \"replays\": %lld,\n"
                  "  \"range_predicates\": %s,\n"
                  "  \"hardware_threads\": %u,\n",
                  static_cast<long long>(config.n),
                  static_cast<long long>(config.queries),
                  static_cast<long long>(config.qd), config.s,
                  static_cast<long long>(config.l),
                  static_cast<long long>(config.replays),
                  config.range_predicates ? "true" : "false", hardware_threads);
    os << buf;
    // Thread-scaling ratios measured with fewer hardware threads than worker
    // threads are contention artifacts, not speedups. Publish null + an
    // explicit invalidity flag instead of a misleading number.
    const bool single_core = hardware_threads <= 1;
    if (single_core) {
      std::snprintf(buf, sizeof buf,
                    "  \"count_scaling_8t_vs_1t\": null,\n"
                    "  \"invalid_single_core\": true,\n");
    } else {
      std::snprintf(buf, sizeof buf,
                    "  \"count_scaling_8t_vs_1t\": %.3f,\n"
                    "  \"invalid_single_core\": false,\n",
                    count_scaling_8t);
    }
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "  \"count_scaling_required\": %.3f,\n"
                  "  \"count_speedup_1t\": {\"kernel\": %.3f},\n"
                  "  \"sum_speedup_1t\": {\"kernel\": %.3f},\n",
                  scaling_required, count_qps_1t[1] / count_qps_1t[0],
                  sum_qps_1t[1] / sum_qps_1t[0]);
    os << buf;
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const TimedRun& r = runs[i];
      // A >1-worker run on a single core is all contention; its ratio over
      // the 1-thread row is meaningless. 1-thread rows stay valid anywhere.
      char speedup[64];
      if (single_core && r.threads > 1) {
        std::snprintf(speedup, sizeof speedup,
                      "null, \"invalid_single_core\": true");
      } else {
        std::snprintf(speedup, sizeof speedup, "%.3f", r.speedup_vs_1t);
      }
      std::snprintf(buf, sizeof buf,
                    "    {\"aggregate\": \"%s\", \"path\": \"%s\", "
                    "\"threads\": %zu, \"queries_per_s\": %.1f, "
                    "\"rows_per_s\": %.0f, \"speedup_vs_1t\": %s, "
                    "\"latency_p50_ns\": %llu, "
                    "\"latency_p99_ns\": %llu}%s\n",
                    r.aggregate.c_str(), r.path.c_str(), r.threads, r.qps,
                    r.rows_per_s, speedup,
                    static_cast<unsigned long long>(r.p50_ns),
                    static_cast<unsigned long long>(r.p99_ns),
                    i + 1 < runs.size() ? "," : "");
      os << buf;
    }
    os << "  ],\n";
    std::snprintf(buf, sizeof buf,
                  "  \"steady_state\": {\"heap_allocs\": %llu, "
                  "\"zero_alloc_enforced\": %s},\n",
                  static_cast<unsigned long long>(steady_mallocs),
                  MallocCountAvailable() ? "true" : "false");
    os << buf;
    os << "  \"memory\": " << MemoryJson(2) << "\n}\n";
    std::printf("(results written to %s)\n", config.json_out.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace anatomy

int main(int argc, char** argv) {
  using namespace anatomy;
  using namespace anatomy::bench;
  KernelBenchConfig config;
  FlagParser parser;
  parser.AddInt64("n", &config.n, "dataset cardinality");
  parser.AddInt64("queries", &config.queries, "distinct queries per pass");
  parser.AddInt64("qd", &config.qd, "query dimensionality");
  parser.AddDouble("s", &config.s, "expected selectivity");
  parser.AddInt64("l", &config.l, "l-diversity parameter");
  parser.AddInt64("seed", &config.seed, "master RNG seed");
  parser.AddInt64("replays", &config.replays, "passes per timed section");
  parser.AddBool("range_predicates", &config.range_predicates,
                 "interval predicates (single prefix-OR run each)");
  parser.AddString("json_out", &config.json_out,
                   "write machine-readable results here (empty to skip)");
  const Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 parser.Usage(argv[0]).c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf(
        "bench_query_kernels: the group-clustered kernel vs the scalar "
        "reference\n%s",
        parser.Usage(argv[0]).c_str());
    return 0;
  }
  Run(config);
  return 0;
}
