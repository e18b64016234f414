// Parallel query serving: throughput of the anatomy estimator when one
// shared immutable estimator answers a workload across 1..T worker threads,
// with bit-identical-to-single-thread parity checked on every run. The
// speedup column is the estimator-only scaling (queries/s at T threads over
// queries/s at 1 thread); perfectly linear scaling would read T.00x on
// idle hardware — numbers are whatever the machine's core count and load
// actually allow.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/printer.h"
#include "data/census_generator.h"
#include "obs/metrics.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "workload/parallel_runner.h"

namespace anatomy {
namespace bench {
namespace {

void Run(const BenchConfig& config) {
  const Table census =
      GenerateCensus(static_cast<RowId>(config.n), config.seed);
  ExperimentDataset dataset = ValueOrDie(
      MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5));
  PublishedDataset published = ValueOrDie(
      Publish(std::move(dataset), static_cast<int>(config.l), config.seed));

  WorkloadOptions options;
  options.qd = 0;  // all d
  options.s = 0.05;
  options.num_queries = static_cast<size_t>(config.queries);
  options.seed = config.seed + 1;

  const Microdata& md = published.dataset.microdata;
  ExactEvaluator exact(md);
  ParallelRunner materializer(ParallelRunnerOptions{.num_threads = 1});
  MaterializedWorkload workload =
      ValueOrDie(materializer.Materialize(md, exact, options));
  AnatomyEstimator estimator(published.anatomized);

  // Single-thread reference pass: the parity baseline and the denominator
  // of every speedup figure.
  ParallelRunner single(ParallelRunnerOptions{.num_threads = 1});
  single.EstimateAll(estimator, workload.queries);  // warm scratches
  std::vector<double> reference;
  const double base_seconds = TimeSeconds(
      [&] { reference = single.EstimateAll(estimator, workload.queries); });
  const double base_qps =
      static_cast<double>(workload.queries.size()) / base_seconds;

  // Per-estimate latency comes from the same `query.latency_ns` histogram
  // the figure benches record; it is reset before each timed run so each
  // row's percentiles cover exactly that run.
  obs::Histogram* latency_ns =
      obs::MetricsEnabled()
          ? obs::MetricRegistry::Global().GetHistogram("query.latency_ns")
          : nullptr;

  TablePrinter printer({"threads", "queries/s", "speedup", "p50 (us)",
                        "p99 (us)", "est/s (hist)", "bit-identical"});
  for (size_t threads : {1, 2, 4, 8}) {
    ParallelRunner runner(ParallelRunnerOptions{.num_threads = threads});
    runner.EstimateAll(estimator, workload.queries);  // warm worker scratches
    if (latency_ns != nullptr) latency_ns->Reset();
    std::vector<double> estimates;
    const double seconds = TimeSeconds(
        [&] { estimates = runner.EstimateAll(estimator, workload.queries); });
    size_t mismatches = 0;
    for (size_t i = 0; i < estimates.size(); ++i) {
      if (estimates[i] != reference[i]) ++mismatches;
    }
    const double qps =
        static_cast<double>(workload.queries.size()) / seconds;
    std::string p50 = "-";
    std::string p99 = "-";
    std::string hist_qps = "-";
    if (latency_ns != nullptr && latency_ns->count() > 0) {
      p50 = FormatDouble(static_cast<double>(latency_ns->Quantile(0.50)) / 1e3,
                         1);
      p99 = FormatDouble(static_cast<double>(latency_ns->Quantile(0.99)) / 1e3,
                         1);
      hist_qps = FormatDouble(static_cast<double>(latency_ns->count()) /
                                  (static_cast<double>(latency_ns->sum()) *
                                   1e-9),
                              0);
    }
    printer.AddRow({std::to_string(threads), FormatDouble(qps, 0),
                    FormatDouble(qps / base_qps, 2) + "x", p50, p99, hist_qps,
                    mismatches == 0
                        ? "yes"
                        : "NO (" + std::to_string(mismatches) + ")"});
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread estimates diverge from the "
                   "single-thread run\n",
                   threads);
      std::exit(1);
    }
  }

  std::printf(
      "Parallel query serving: one shared AnatomyEstimator, %zu queries "
      "(n = %lld, OCC-5, qd = d, s = 5%%), single-thread reference "
      "%.0f queries/s\n",
      workload.queries.size(), static_cast<long long>(config.n), base_qps);
  printer.Print();
  MaybeWriteSeriesCsv(config, "parallel_queries", printer);
  MaybeWriteObs(config);
}

}  // namespace
}  // namespace bench
}  // namespace anatomy

int main(int argc, char** argv) {
  using namespace anatomy;
  using namespace anatomy::bench;
  const BenchConfig config = ParseBenchFlags(
      argc, argv,
      "bench_parallel_queries: estimator throughput vs worker threads, with "
      "single-thread parity verification");
  Run(config);
  return 0;
}
