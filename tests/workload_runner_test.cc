#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/mondrian.h"
#include "workload/runner.h"

namespace anatomy {
namespace {

struct PublishedPair {
  Microdata microdata;
  AnatomizedTables anatomized;
  GeneralizedTable generalized;
};

PublishedPair Publish(RowId n, int d, int l, uint64_t seed) {
  const Table census = GenerateCensus(n, seed);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, d);
  ANATOMY_CHECK_OK(dataset.status());
  const Microdata& md = dataset.value().microdata;

  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = seed});
  auto partition = anatomizer.ComputePartition(md);
  ANATOMY_CHECK_OK(partition.status());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ANATOMY_CHECK_OK(tables.status());

  Mondrian mondrian(MondrianOptions{.l = l});
  auto general_partition =
      mondrian.ComputePartition(md, dataset.value().taxonomies);
  ANATOMY_CHECK_OK(general_partition.status());
  auto generalized = GeneralizedTable::Build(md, general_partition.value(),
                                             dataset.value().taxonomies);
  ANATOMY_CHECK_OK(generalized.status());

  return PublishedPair{md, std::move(tables).value(),
                       std::move(generalized).value()};
}

TEST(WorkloadRunnerTest, EvaluatesRequestedQueryCount) {
  const PublishedPair pair = Publish(5000, 3, 10, 1);
  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.08;
  options.num_queries = 60;
  options.seed = 2;
  auto result =
      RunWorkload(pair.microdata, pair.anatomized, pair.generalized, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().queries_evaluated, 60u);
  EXPECT_GE(result.value().anatomy_error, 0.0);
  EXPECT_GE(result.value().generalization_error, 0.0);
}

TEST(WorkloadRunnerTest, DeterministicInSeed) {
  const PublishedPair pair = Publish(4000, 3, 10, 3);
  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.08;
  options.num_queries = 40;
  options.seed = 9;
  auto a =
      RunWorkload(pair.microdata, pair.anatomized, pair.generalized, options);
  auto b =
      RunWorkload(pair.microdata, pair.anatomized, pair.generalized, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().anatomy_error, b.value().anatomy_error);
  EXPECT_DOUBLE_EQ(a.value().generalization_error,
                   b.value().generalization_error);
  EXPECT_EQ(a.value().zero_actual_skipped, b.value().zero_actual_skipped);
}

TEST(WorkloadRunnerTest, GivesUpOnDegenerateWorkloads) {
  // Selectivity so small every query returns 0: the runner must fail
  // loudly instead of looping forever.
  const PublishedPair pair = Publish(200, 3, 10, 4);
  WorkloadOptions options;
  options.qd = 3;
  options.s = 1e-6;
  options.num_queries = 5;
  options.seed = 1;
  RunnerOptions runner_options;
  runner_options.max_consecutive_skips = 50;
  auto result = RunWorkload(pair.microdata, pair.anatomized, pair.generalized,
                            options, runner_options);
  EXPECT_FALSE(result.ok());
}

TEST(WorkloadRunnerTest, TemplateVariantMatchesPairRunner) {
  const PublishedPair pair = Publish(3000, 3, 10, 5);
  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.08;
  options.num_queries = 30;
  options.seed = 11;
  auto both =
      RunWorkload(pair.microdata, pair.anatomized, pair.generalized, options);
  ASSERT_TRUE(both.ok());
  AnatomyEstimator estimator(pair.anatomized);
  auto anatomy_only = RunWorkloadAgainst(
      pair.microdata, options,
      [&](const CountQuery& q) { return estimator.Estimate(q); });
  ASSERT_TRUE(anatomy_only.ok());
  EXPECT_NEAR(anatomy_only.value(), both.value().anatomy_error, 1e-12);
}

}  // namespace
}  // namespace anatomy
