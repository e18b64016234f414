// Thread-scaling acceptance test for the query path.
//
// The test is self-gating: it measures wall-clock speedup, so it skips
// itself (GTEST_SKIP) on machines with fewer than 8 hardware threads and
// under sanitizer builds (instrumentation overhead makes wall-clock ratios
// meaningless there). On qualifying hardware it asserts the 8-thread COUNT
// throughput is at least 3x the single-thread throughput over the same
// workload — the regression guard against shared state re-entering the
// per-query path.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "common/stopwatch.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "query/anatomy_estimator.h"
#include "workload/parallel_runner.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

struct PublishedCensus {
  ExperimentDataset dataset;
  AnatomizedTables tables;
};

PublishedCensus MakePublishedCensus(RowId n) {
  const Table census = GenerateCensus(n, 47);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ANATOMY_CHECK_OK(dataset.status());
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 5});
  auto partition = anatomizer.ComputePartition(dataset.value().microdata);
  ANATOMY_CHECK_OK(partition.status());
  auto tables =
      AnatomizedTables::Build(dataset.value().microdata, partition.value());
  ANATOMY_CHECK_OK(tables.status());
  return PublishedCensus{std::move(dataset).value(),
                         std::move(tables).value()};
}

std::vector<CountQuery> MakeQueries(const Microdata& microdata, size_t count,
                                    uint64_t seed) {
  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.1;
  options.seed = seed;
  auto generator = WorkloadGenerator::Create(microdata, options);
  ANATOMY_CHECK_OK(generator.status());
  std::vector<CountQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) queries.push_back(generator.value().Next());
  return queries;
}

// Replays the workload through a runner until ~min_seconds of wall clock
// has elapsed; returns queries served per second.
double MeasureThroughput(ParallelRunner& runner,
                         const AnatomyEstimator& estimator,
                         const std::vector<CountQuery>& queries,
                         double min_seconds) {
  // One untimed round to warm the scratches, the pool, and the allocator.
  (void)runner.EstimateAll(estimator, queries);
  size_t served = 0;
  Stopwatch watch;
  do {
    (void)runner.EstimateAll(estimator, queries);
    served += queries.size();
  } while (watch.ElapsedSeconds() < min_seconds);
  return static_cast<double>(served) / watch.ElapsedSeconds();
}

TEST(QueryScalingTest, CountThroughputScalesToEightThreads) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have " << hw
                 << " — thread-scaling assertion not meaningful here";
  }
  if (kSanitizerBuild) {
    GTEST_SKIP() << "sanitizer build: wall-clock ratios are instrumentation "
                    "noise, not scaling";
  }

  const PublishedCensus published = MakePublishedCensus(20000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 2000, 59);
  const AnatomyEstimator estimator(published.tables);

  // Metrics stay on: the contended-histogram fix is part of what's gated.
  ParallelRunner one(ParallelRunnerOptions{.num_threads = 1});
  ParallelRunner eight(ParallelRunnerOptions{.num_threads = 8});
  const double qps_1 = MeasureThroughput(one, estimator, queries, 1.0);
  const double qps_8 = MeasureThroughput(eight, estimator, queries, 1.0);

  RecordProperty("qps_1_thread", static_cast<int>(qps_1));
  RecordProperty("qps_8_threads", static_cast<int>(qps_8));
  EXPECT_GE(qps_8, 3.0 * qps_1)
      << "8-thread COUNT throughput " << qps_8 << " q/s is under 3x the "
      << "1-thread " << qps_1 << " q/s — the query path has re-contended";
}

}  // namespace
}  // namespace anatomy
