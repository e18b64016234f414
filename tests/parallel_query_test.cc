// Re-entrancy and parallel-serving tests: the estimators are immutable
// after construction, so one shared instance must produce bit-identical
// answers no matter how many threads hammer it. The hammer tests are the
// payload of the ThreadSanitizer job (tools/check_sanitizers.sh) — before
// the EstimatorScratch refactor they raced on the estimators' mutable
// scratch members and returned corrupted counts.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/mondrian.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/aggregate.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "query/generalization_estimator.h"
#include "workload/parallel_runner.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

// ------------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  const size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t shard, size_t begin, size_t end) {
    EXPECT_LT(shard, 4u);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForShardsAreDeterministic) {
  // Shard boundaries depend only on (n, num_threads), never on scheduling.
  ThreadPool pool(3);
  std::vector<std::pair<size_t, size_t>> bounds(3);
  pool.ParallelFor(100, [&](size_t shard, size_t begin, size_t end) {
    bounds[shard] = {begin, end};
  });
  EXPECT_EQ(bounds[0], (std::pair<size_t, size_t>{0, 33}));
  EXPECT_EQ(bounds[1], (std::pair<size_t, size_t>{33, 66}));
  EXPECT_EQ(bounds[2], (std::pair<size_t, size_t>{66, 100}));
}

TEST(ThreadPoolTest, EmptyRangeAndFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<size_t> covered{0};
  pool.ParallelFor(0, [&](size_t, size_t begin, size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 0u);
  pool.ParallelFor(3, [&](size_t, size_t begin, size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 3u);
}

TEST(ThreadPoolTest, RunPendingThenWaitRunsUnstartedTasksOnCaller) {
  // The only worker blocks until the queued tasks have run, which only the
  // calling thread can do; then the call waits for the blocked task too.
  constexpr int kQueued = 5;
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  std::atomic<bool> blocker_done{false};
  pool.Submit([&] {
    started.store(true);
    while (ran.load() < kQueued) std::this_thread::yield();
    blocker_done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::vector<std::thread::id> ran_on(kQueued);
  for (int i = 0; i < kQueued; ++i) {
    pool.Submit([&, i] {
      ran_on[i] = std::this_thread::get_id();
      ran.fetch_add(1);
    });
  }
  pool.RunPendingThenWait();
  EXPECT_TRUE(blocker_done.load());
  for (int i = 0; i < kQueued; ++i) {
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
  }
  // The pool stays usable afterwards.
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), kQueued + 1);
}

// ------------------------------------------------------------ Rng streams --

TEST(RngStreamTest, StreamsAreReproducibleAndDistinct) {
  Rng a = Rng::ForStream(42, 3);
  Rng b = Rng::ForStream(42, 3);
  Rng c = Rng::ForStream(42, 4);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    any_diff |= (va != c.Next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngStreamTest, SplitMix64MatchesRngSeeding) {
  // ForStream is exactly Rng(SplitMix64(seed ^ stream)) — the documented
  // derivation other components can rely on.
  Rng direct(SplitMix64(42 ^ 7));
  Rng stream = Rng::ForStream(42, 7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(direct.Next(), stream.Next());
}

// ----------------------------------------------------------- Shared state --

struct PublishedCensus {
  ExperimentDataset dataset;
  AnatomizedTables anatomized;
  GeneralizedTable generalized;
};

PublishedCensus MakePublishedCensus(RowId n) {
  const Table census = GenerateCensus(n, 21);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ANATOMY_CHECK_OK(dataset.status());
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 5});
  auto partition = anatomizer.ComputePartition(dataset.value().microdata);
  ANATOMY_CHECK_OK(partition.status());
  auto tables =
      AnatomizedTables::Build(dataset.value().microdata, partition.value());
  ANATOMY_CHECK_OK(tables.status());
  Mondrian mondrian(MondrianOptions{.l = 10});
  auto general_partition = mondrian.ComputePartition(
      dataset.value().microdata, dataset.value().taxonomies);
  ANATOMY_CHECK_OK(general_partition.status());
  auto generalized =
      GeneralizedTable::Build(dataset.value().microdata,
                              general_partition.value(),
                              dataset.value().taxonomies);
  ANATOMY_CHECK_OK(generalized.status());
  return PublishedCensus{std::move(dataset).value(), std::move(tables).value(),
                         std::move(generalized).value()};
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

// -------------------------------------------------- Estimator re-entrancy --

TEST(ParallelRunnerTest, OneThreadAndEightThreadsAgreeBitwise) {
  const PublishedCensus published = MakePublishedCensus(6000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 400, 11);
  AnatomyEstimator anatomy(published.anatomized);
  GeneralizationEstimator generalization(published.generalized);

  ParallelRunner single(ParallelRunnerOptions{.num_threads = 1});
  ParallelRunner eight(ParallelRunnerOptions{.num_threads = 8});

  const std::vector<double> anatomy_1 = single.EstimateAll(anatomy, queries);
  const std::vector<double> anatomy_8 = eight.EstimateAll(anatomy, queries);
  const std::vector<double> general_1 =
      single.EstimateAll(generalization, queries);
  const std::vector<double> general_8 =
      eight.EstimateAll(generalization, queries);

  ASSERT_EQ(anatomy_1.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Bit-identical, not just close: the estimate must not depend on
    // sharding or on which worker's scratch served the query.
    EXPECT_EQ(anatomy_1[i], anatomy_8[i]) << "query " << i;
    EXPECT_EQ(general_1[i], general_8[i]) << "query " << i;
  }
}

TEST(ParallelRunnerTest, FullObservabilityLeavesEstimatesBitIdentical) {
  // The obs layer's determinism contract: metrics and tracing are strictly
  // out-of-band, so running with everything on must reproduce, bit for bit,
  // a baseline computed with everything off — sequentially and in parallel.
  const PublishedCensus published = MakePublishedCensus(5000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 300, 29);
  AnatomyEstimator anatomy(published.anatomized);

  obs::SetMetricsEnabled(false);
  obs::TraceRecorder::Global().SetEnabled(false);
  ParallelRunner single(ParallelRunnerOptions{.num_threads = 1});
  const std::vector<double> baseline = single.EstimateAll(anatomy, queries);

  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::Global().SetEnabled(true);
  const std::vector<double> sequential = single.EstimateAll(anatomy, queries);
  ParallelRunner eight(ParallelRunnerOptions{.num_threads = 8});
  const std::vector<double> parallel = eight.EstimateAll(anatomy, queries);
  // Restore the process-wide defaults for the rest of the suite.
  obs::TraceRecorder::Global().SetEnabled(false);

  ASSERT_EQ(sequential.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sequential[i], baseline[i]) << "query " << i;
    EXPECT_EQ(parallel[i], baseline[i]) << "query " << i;
  }
}

TEST(ParallelRunnerTest, ExactCountsMatchSequentialEvaluator) {
  const PublishedCensus published = MakePublishedCensus(4000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 200, 13);
  ExactEvaluator exact(published.dataset.microdata);
  ParallelRunner runner(ParallelRunnerOptions{.num_threads = 5});
  const std::vector<uint64_t> parallel = runner.CountAll(exact, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(parallel[i], exact.Count(queries[i])) << "query " << i;
  }
}

TEST(ParallelRunnerTest, RunWorkloadMatchesSequentialRunnerBitwise) {
  const PublishedCensus published = MakePublishedCensus(5000);
  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.1;
  options.num_queries = 120;
  options.seed = 17;

  auto sequential =
      RunWorkload(published.dataset.microdata, published.anatomized,
                  published.generalized, options);
  ASSERT_TRUE(sequential.ok());

  for (size_t threads : {1u, 4u, 8u}) {
    ParallelRunner runner(ParallelRunnerOptions{.num_threads = threads});
    auto parallel =
        runner.RunWorkload(published.dataset.microdata, published.anatomized,
                           published.generalized, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.value().summary.queries_evaluated,
              sequential.value().queries_evaluated);
    EXPECT_EQ(parallel.value().summary.zero_actual_skipped,
              sequential.value().zero_actual_skipped);
    EXPECT_EQ(parallel.value().summary.anatomy_error,
              sequential.value().anatomy_error);
    EXPECT_EQ(parallel.value().summary.generalization_error,
              sequential.value().generalization_error);
  }
}

// ------------------------------------------------- Materialize accounting --

TEST(ParallelRunnerTest, MaterializeAccountingMatchesSequentialRunner) {
  // Differential stress over workload shapes: the parallel Materialize must
  // accept/skip exactly the queries the sequential runner does — same
  // queries_evaluated, same zero_actual_skipped, same error status when the
  // skip limit trips — and every oversampled candidate past the final
  // accepted query must be accounted in oversampled_discarded rather than
  // silently vanishing (batch generation draws more candidates than the
  // sequential generator ever does; the counter is what makes hits + skips
  // + discards add up to candidates drawn).
  const PublishedCensus published = MakePublishedCensus(4000);
  const Microdata& md = published.dataset.microdata;
  ExactEvaluator exact(md);
  ParallelRunner runner(ParallelRunnerOptions{.num_threads = 4});

  for (size_t num_queries : {1u, 7u, 60u}) {
    for (double s : {0.02, 0.1}) {
      for (size_t max_skips : {0u, 3u, 1000u}) {
        for (uint64_t seed : {17u, 18u, 19u}) {
          WorkloadOptions options;
          options.qd = 2;
          options.s = s;
          options.num_queries = num_queries;
          options.seed = seed;
          RunnerOptions runner_options;
          runner_options.max_consecutive_skips = max_skips;

          auto sequential = RunWorkload(md, published.anatomized,
                                        published.generalized, options,
                                        runner_options);
          auto parallel =
              runner.Materialize(md, exact, options, runner_options);

          const std::string label =
              "num_queries=" + std::to_string(num_queries) +
              " s=" + std::to_string(s) +
              " max_skips=" + std::to_string(max_skips) +
              " seed=" + std::to_string(seed);
          ASSERT_EQ(parallel.ok(), sequential.ok()) << label;
          if (!sequential.ok()) {
            EXPECT_EQ(parallel.status().code(), sequential.status().code())
                << label;
            continue;
          }
          const MaterializedWorkload& workload = parallel.value();
          EXPECT_EQ(workload.queries.size(), num_queries) << label;
          EXPECT_EQ(workload.queries.size(),
                    sequential.value().queries_evaluated)
              << label;
          EXPECT_EQ(workload.zero_actual_skipped,
                    sequential.value().zero_actual_skipped)
              << label;
          for (size_t i = 0; i < workload.queries.size(); ++i) {
            EXPECT_EQ(workload.actuals[i], exact.Count(workload.queries[i]))
                << label << " query " << i;
            EXPECT_GT(workload.actuals[i], 0u) << label << " query " << i;
          }
          // The discard tally is deterministic: same seed, same batches,
          // same count — so accepted + skipped + discarded reproducibly
          // accounts for every candidate drawn.
          auto rerun = runner.Materialize(md, exact, options, runner_options);
          ASSERT_TRUE(rerun.ok()) << label;
          EXPECT_EQ(rerun.value().oversampled_discarded,
                    workload.oversampled_discarded)
              << label;
          EXPECT_EQ(rerun.value().zero_actual_skipped,
                    workload.zero_actual_skipped)
              << label;
        }
      }
    }
  }
}

// One shared `const` estimator hammered from many threads. Only meaningful
// as a correctness proof under TSan, but the value assertions also catch
// cross-thread scratch corruption in a normal build: before the refactor,
// concurrent callers clobbered each other's group masses.
TEST(SharedEstimatorHammerTest, ConcurrentEstimatesAreUncorrupted) {
  const PublishedCensus published = MakePublishedCensus(3000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 64, 19);
  const AnatomyEstimator anatomy(published.anatomized);
  const GeneralizationEstimator generalization(published.generalized);
  const ExactEvaluator exact(published.dataset.microdata);

  std::vector<double> expected_anatomy(queries.size());
  std::vector<double> expected_general(queries.size());
  std::vector<uint64_t> expected_exact(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected_anatomy[i] = anatomy.Estimate(queries[i]);
    expected_general[i] = generalization.Estimate(queries[i]);
    expected_exact[i] = exact.Count(queries[i]);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the query list from a different offset so the
      // threads are maximally out of phase on the shared estimators.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < queries.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t) * 7) % queries.size();
          if (anatomy.Estimate(queries[i]) != expected_anatomy[i] ||
              generalization.Estimate(queries[i]) != expected_general[i] ||
              exact.Count(queries[i]) != expected_exact[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SharedEstimatorHammerTest, AggregateEstimatorsAreReentrant) {
  const PublishedCensus published = MakePublishedCensus(3000);
  const std::vector<CountQuery> count_queries =
      MakeQueries(published.dataset.microdata, 24, 23);
  std::vector<AggregateQuery> queries;
  queries.reserve(count_queries.size());
  for (size_t i = 0; i < count_queries.size(); ++i) {
    AggregateQuery q;
    q.predicates = count_queries[i];
    q.kind = (i % 3 == 0) ? AggregateKind::kCount
                          : (i % 3 == 1 ? AggregateKind::kSum
                                        : AggregateKind::kAvg);
    q.measure_qi = 0;
    queries.push_back(std::move(q));
  }
  const AnatomyAggregateEstimator anatomy(published.anatomized);
  const GeneralizationAggregateEstimator generalization(
      published.generalized, published.dataset.microdata);

  std::vector<double> expected_anatomy(queries.size());
  std::vector<double> expected_general(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected_anatomy[i] = anatomy.Estimate(queries[i]);
    expected_general[i] = generalization.Estimate(queries[i]);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (size_t k = 0; k < queries.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t) * 5) % queries.size();
          if (anatomy.Estimate(queries[i]) != expected_anatomy[i] ||
              generalization.Estimate(queries[i]) != expected_general[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------ Kernel-path parallelism --

TEST(KernelParallelTest, AllKernelConfigsAgreeBitwiseAcrossThreadCounts) {
  // The determinism contract must hold for every kernel mode: result[i]
  // depends only on queries[i] and the immutable estimator, never on
  // sharding.
  const PublishedCensus published = MakePublishedCensus(6000);
  const std::vector<CountQuery> queries =
      MakeQueries(published.dataset.microdata, 300, 31);

  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;

  const AnatomyEstimator scalar_est(published.anatomized, scalar);
  const AnatomyEstimator kernel_est(published.anatomized);

  ParallelRunner single(ParallelRunnerOptions{.num_threads = 1});
  const std::vector<double> kernel_1 = single.EstimateAll(kernel_est, queries);
  const std::vector<double> scalar_1 = single.EstimateAll(scalar_est, queries);

  for (size_t threads : {2u, 8u}) {
    ParallelRunner runner(ParallelRunnerOptions{.num_threads = threads});
    const std::vector<double> kernel_t = runner.EstimateAll(kernel_est, queries);
    const std::vector<double> scalar_t = runner.EstimateAll(scalar_est, queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(kernel_t[i], kernel_1[i]) << threads << " threads, query " << i;
      EXPECT_EQ(scalar_t[i], scalar_1[i]) << threads << " threads, query " << i;
    }
  }
}

// ------------------------------------------- Out-of-domain sensitive codes --

TEST(OutOfDomainPredicateTest, EstimatorsIgnoreOutOfDomainSensitiveValues) {
  const PublishedCensus published = MakePublishedCensus(3000);
  const Microdata& md = published.dataset.microdata;
  const Code domain = md.sensitive_attribute().domain_size;

  AnatomyEstimator anatomy(published.anatomized);
  GeneralizationEstimator generalization(published.generalized);
  ExactEvaluator exact(md);

  CountQuery in_domain;
  in_domain.sensitive_predicate = AttributePredicate(0, {0, 3});
  CountQuery padded = in_domain;
  // Negative and far-beyond-domain codes: they name no existing sensitive
  // value, so they must change nothing (and crash nothing).
  padded.sensitive_predicate =
      AttributePredicate(0, {-7, -1, 0, 3, domain, domain + 12345});

  EXPECT_EQ(anatomy.Estimate(padded), anatomy.Estimate(in_domain));
  EXPECT_EQ(generalization.Estimate(padded),
            generalization.Estimate(in_domain));
  EXPECT_EQ(exact.Count(padded), exact.Count(in_domain));
  EXPECT_EQ(exact.Count(padded), CountByScan(md, padded));

  CountQuery all_out;
  all_out.sensitive_predicate = AttributePredicate(0, {-3, domain + 2});
  EXPECT_EQ(anatomy.Estimate(all_out), 0.0);
  EXPECT_EQ(generalization.Estimate(all_out), 0.0);
  EXPECT_EQ(exact.Count(all_out), 0u);
}

TEST(OutOfDomainPredicateTest, AggregateEstimatorsIgnoreOutOfDomainValues) {
  const PublishedCensus published = MakePublishedCensus(3000);
  const Code domain =
      published.dataset.microdata.sensitive_attribute().domain_size;
  const AnatomyAggregateEstimator anatomy(published.anatomized);
  const GeneralizationAggregateEstimator generalization(
      published.generalized, published.dataset.microdata);

  AggregateQuery query;
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;
  query.predicates.sensitive_predicate = AttributePredicate(0, {1, 4});
  AggregateQuery padded = query;
  padded.predicates.sensitive_predicate =
      AttributePredicate(0, {-2, 1, 4, domain + 99});

  EXPECT_EQ(anatomy.Estimate(padded), anatomy.Estimate(query));
  EXPECT_EQ(generalization.Estimate(padded), generalization.Estimate(query));
}

}  // namespace
}  // namespace anatomy
