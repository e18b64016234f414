// Shared harness for the figure-reproduction benchmarks.
//
// Every bench binary reproduces one figure of the paper's Section 6. The
// default preset is scaled down so the whole suite runs in minutes on one
// core (n = 60k, 1,000 queries per workload); pass --paper for the full
// Table 7 configuration (n = 300k, 10,000 queries) — same code, longer run.

#ifndef ANATOMY_BENCH_BENCH_UTIL_H_
#define ANATOMY_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "common/flags.h"
#include "common/printer.h"
#include "common/status.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "workload/runner.h"

namespace anatomy {
namespace bench {

struct BenchConfig {
  /// Dataset cardinality for fixed-n figures.
  int64_t n = 60000;
  /// Queries per workload point.
  int64_t queries = 1000;
  /// The paper's privacy parameter (Table 7: l = 10).
  int64_t l = 10;
  /// Master seed; every derived RNG forks from it.
  int64_t seed = 42;
  /// Full paper scale (n = 300k / 100k..500k sweeps, 10k queries).
  bool paper = false;
  /// When non-empty, every printed series is also written to
  /// <csv_dir>/<figure>.csv for plotting.
  std::string csv_dir;
  /// When non-empty, a final metrics snapshot is written here on exit via
  /// MaybeWriteObs (.prom -> Prometheus exposition, .json -> JSON, anything
  /// else -> aligned text table).
  std::string metrics_out;
  /// When non-empty, tracing is enabled at flag-parse time and a Chrome
  /// trace-event JSON file is written here by MaybeWriteObs (load it in
  /// chrome://tracing or https://ui.perfetto.dev).
  std::string trace_out;
};

/// Parses the standard bench flags (plus --help). Exits the process on bad
/// flags or --help, so callers can use the result unconditionally.
BenchConfig ParseBenchFlags(int argc, char** argv, const std::string& banner);

/// Cardinality sweep for the n-axis figures (7 and 9): the paper's
/// 100k..500k, or a proportionally reduced ladder in the quick preset.
std::vector<RowId> CardinalitySweep(const BenchConfig& config);

/// Both publications of one dataset.
struct PublishedDataset {
  ExperimentDataset dataset;
  AnatomizedTables anatomized;
  GeneralizedTable generalized;
};

/// Runs Anatomize and l-diverse Mondrian on `dataset`.
StatusOr<PublishedDataset> Publish(ExperimentDataset dataset, int l,
                                   uint64_t seed);

/// One accuracy point: average relative errors (as percentages) of both
/// methods on a (qd, s) workload.
struct ErrorPoint {
  double generalization_pct = 0.0;
  double anatomy_pct = 0.0;
  size_t skipped = 0;
  /// Estimates per second of pure estimator time (from the
  /// `query.latency_ns` histogram; 0 when metrics are disabled).
  double estimator_qps = 0.0;
};

StatusOr<ErrorPoint> MeasureErrors(const PublishedDataset& published, int qd,
                                   double s, size_t num_queries,
                                   uint64_t seed);

/// Aborts with the status message if not OK (bench binaries have no caller
/// to propagate to).
void DieIfError(const Status& status);

template <typename T>
T ValueOrDie(StatusOr<T> result) {
  DieIfError(result.status());
  return std::move(result).value();
}

/// "OCC" / "SAL" pretty name.
std::string FamilyName(SensitiveFamily family);

/// Writes `printer`'s rows to <csv_dir>/<figure>.csv when --csv_dir was
/// given; silently does nothing otherwise.
void MaybeWriteSeriesCsv(const BenchConfig& config, const std::string& figure,
                         const TablePrinter& printer);

/// Writes the global metrics snapshot to --metrics_out and the trace to
/// --trace_out, whichever were given. Call once at the end of main.
void MaybeWriteObs(const BenchConfig& config);

/// Sources a pipeline's I/O count from the metrics registry: snapshots the
/// `<pipeline>.io.reads/writes` counters at construction and returns the
/// delta afterwards, cross-checked against the pipeline's own IoStats. The
/// figure benches report the registry numbers, and abort if the two
/// accountings ever disagree — so the printed I/O is provably registry-fed.
class RegistryIoProbe {
 public:
  explicit RegistryIoProbe(const std::string& pipeline);

  /// Counter delta since construction; dies unless it equals `expected`.
  uint64_t TotalOrDie(const IoStats& expected) const;

 private:
  std::string pipeline_;
  obs::Counter* reads_;
  obs::Counter* writes_;
  uint64_t reads_before_;
  uint64_t writes_before_;
};

/// Wall-clock seconds `fn` takes — the shared replacement for per-bench
/// stopwatch bookkeeping.
double TimeSeconds(const std::function<void()>& fn);

/// std::thread::hardware_concurrency(), floored at 1 (the standard permits
/// a 0 "unknown" answer).
unsigned HardwareThreads();

/// Prints an unmissable stderr banner when the host has a single hardware
/// thread. Every bench that records a JSON artifact must call this before
/// writing: multi-threaded numbers captured on a 1-core host measure
/// oversubscription, not scaling, and a checked-in artifact that doesn't
/// say so reads as a genuine scaling collapse (exactly how the flat
/// BENCH_query_kernels.json curve was misread). Returns HardwareThreads()
/// so callers can also record it in the artifact.
unsigned WarnIfSingleThreaded(const char* bench_name);

// ---- Memory accounting (DESIGN.md §11) ------------------------------------

/// Peak resident set of this process in bytes (VmHWM from
/// /proc/self/status); 0 when the file is unavailable. Monotone over the
/// process lifetime — to compare two configurations, run each in its own
/// child process (see bench_sharded_anatomize's --alloc_probe).
uint64_t PeakRssBytes();

/// Heap allocations observed by the bench-only global operator new hook
/// (bench_malloc_count.cc). The hook is compiled out under sanitizers,
/// whose runtimes own operator new; MallocCountAvailable() says which case
/// this build is.
uint64_t MallocCount();
bool MallocCountAvailable();

/// One JSON object literal (no trailing newline) with this process's memory
/// accounting: peak RSS and the heap-allocation count when the hook is
/// available. Every BENCH_*.json embeds it under a "memory" key; `indent` is
/// the number of leading spaces on each line after the first.
std::string MemoryJson(int indent);

}  // namespace bench
}  // namespace anatomy

#endif  // ANATOMY_BENCH_BENCH_UTIL_H_
