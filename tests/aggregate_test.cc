#include <cmath>

#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/mondrian.h"
#include "query/aggregate.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;
using testing_util::RangePredicate;

constexpr Code kFlu = 2;
constexpr Code kPneumonia = 4;

Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

TEST(NumericValueTest, MapsCodesThroughSchema) {
  const AttributeDef age = MakeNumerical("Age", 78, /*base=*/15);
  EXPECT_DOUBLE_EQ(NumericValue(age, 0), 15.0);
  EXPECT_DOUBLE_EQ(NumericValue(age, 10), 25.0);
  const AttributeDef zip = MakeNumerical("Zip", 100, 0, 1000);
  EXPECT_DOUBLE_EQ(NumericValue(zip, 11), 11000.0);
  const AttributeDef cat = MakeCategorical("C", 5);
  EXPECT_DOUBLE_EQ(NumericValue(cat, 3), 3.0);
}

TEST(ExactAggregateTest, HospitalSums) {
  const Microdata md = HospitalExample();
  AggregateQuery query;
  query.predicates.sensitive_predicate = AttributePredicate(0, {kFlu});
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;  // Age
  // Flu tuples: ages 61 and 65.
  EXPECT_DOUBLE_EQ(ExactAggregate(md, query), 126.0);
  query.kind = AggregateKind::kAvg;
  EXPECT_DOUBLE_EQ(ExactAggregate(md, query), 63.0);
  query.kind = AggregateKind::kCount;
  EXPECT_DOUBLE_EQ(ExactAggregate(md, query), 2.0);
}

TEST(ExactAggregateTest, EmptyMatchAvgIsZero) {
  const Microdata md = HospitalExample();
  AggregateQuery query;
  query.predicates.sensitive_predicate = AttributePredicate(0, {});
  query.kind = AggregateKind::kAvg;
  EXPECT_DOUBLE_EQ(ExactAggregate(md, query), 0.0);
}

TEST(AnatomyAggregateTest, PaperGroupingSumOfQueryA) {
  // Query A restricted tuples: tuples 1 and 2 QI-match in group 1; each
  // contributes its exact age weighted by c(pneumonia)/|G| = 1/2:
  // sum = (23 + 27) / 2 = 25.
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  AnatomyAggregateEstimator estimator(tables.value());
  AggregateQuery query;
  query.predicates.qi_predicates.push_back(RangePredicate(0, 0, 30));
  query.predicates.qi_predicates.push_back(RangePredicate(2, 11, 20));
  query.predicates.sensitive_predicate = AttributePredicate(0, {kPneumonia});
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 25.0);
  query.kind = AggregateKind::kAvg;
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 25.0);  // sum 25 / count 1
  query.kind = AggregateKind::kCount;
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 1.0);
}

TEST(AnatomyAggregateTest, FullSensitivePredicateSumIsExact) {
  const Table census = GenerateCensus(3000, 19);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 4});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());
  AnatomyAggregateEstimator estimator(tables.value());

  std::vector<Code> all(50);
  for (Code v = 0; v < 50; ++v) all[v] = v;
  AggregateQuery query;
  query.predicates.qi_predicates.push_back(RangePredicate(0, 10, 40));  // Age
  query.predicates.sensitive_predicate = AttributePredicate(0, all);
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;
  EXPECT_NEAR(estimator.Estimate(query), ExactAggregate(md, query), 1e-6);
  query.kind = AggregateKind::kAvg;
  EXPECT_NEAR(estimator.Estimate(query), ExactAggregate(md, query), 1e-9);
}

TEST(GeneralizationAggregateTest, SingletonGroupsAreExact) {
  const Microdata md = HospitalExample();
  Partition singletons;
  for (RowId r = 0; r < md.n(); ++r) singletons.AddGroup({&r, 1});
  auto table = GeneralizedTable::Build(md, singletons,
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  GeneralizationAggregateEstimator estimator(table.value(), md);
  AggregateQuery query;
  query.predicates.sensitive_predicate = AttributePredicate(0, {kFlu});
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;
  EXPECT_NEAR(estimator.Estimate(query), 126.0, 1e-9);
}

TEST(GeneralizationAggregateTest, UnconstrainedMeasureUsesCellMidpoint) {
  // One group, cell Age [23, 59]: the smeared mean age is (23 + 59) / 2.
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto table =
      GeneralizedTable::Build(md, p, TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  GeneralizationAggregateEstimator estimator(table.value(), md);
  AggregateQuery query;
  query.predicates.sensitive_predicate = AttributePredicate(0, {kPneumonia});
  query.kind = AggregateKind::kSum;
  query.measure_qi = 0;
  // Group 1 holds both pneumonia tuples; no QI predicate, so p = 1 and each
  // smeared tuple contributes the midpoint age 41.
  EXPECT_NEAR(estimator.Estimate(query), 2 * 41.0, 1e-9);
}

TEST(AggregateComparisonTest, AnatomyBeatsGeneralizationOnAvg) {
  const Table census = GenerateCensus(15000, 42);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kSalaryClass, 5);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;

  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 2});
  auto anatomy_partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(anatomy_partition.ok());
  auto tables = AnatomizedTables::Build(md, anatomy_partition.value());
  ASSERT_TRUE(tables.ok());
  Mondrian mondrian(MondrianOptions{10});
  auto general_partition =
      mondrian.ComputePartition(md, dataset.value().taxonomies);
  ASSERT_TRUE(general_partition.ok());
  auto generalized = GeneralizedTable::Build(md, general_partition.value(),
                                             dataset.value().taxonomies);
  ASSERT_TRUE(generalized.ok());

  AnatomyAggregateEstimator anatomy_estimator(tables.value());
  GeneralizationAggregateEstimator generalization_estimator(generalized.value(),
                                                            md);

  WorkloadOptions options;
  options.qd = 3;
  options.s = 0.08;
  options.seed = 21;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());

  double anatomy_err = 0;
  double general_err = 0;
  int evaluated = 0;
  while (evaluated < 60) {
    AggregateQuery query;
    query.predicates = generator.value().Next();
    query.kind = AggregateKind::kSum;
    query.measure_qi = 0;  // Age
    const double act = ExactAggregate(md, query);
    if (act == 0) continue;
    anatomy_err += std::abs(anatomy_estimator.Estimate(query) - act) / act;
    general_err +=
        std::abs(generalization_estimator.Estimate(query) - act) / act;
    ++evaluated;
  }
  EXPECT_LT(anatomy_err, general_err);
}

}  // namespace
}  // namespace anatomy
