// Shared declarations of the end-to-end benchmark (see README.md).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans and counter deltas.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload ("bundle_query", "serve_fresh" or "publish"). Untraced
/// runs return the end-to-end metrics, traced runs the per-layer metrics.
RunResult RunWorkload(const RunOptions& options);

/// Heap allocations (global operator new) counted while counting is on.
/// Counting is off by default; only traced runs switch it on, around the
/// calls whose allocations they report.
void SetAllocCounting(bool on);
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
