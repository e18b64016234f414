#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/mondrian.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "query/generalization_estimator.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;
using testing_util::RangePredicate;

constexpr Code kPneumonia = 4;

Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

/// Query A of Section 1.1.
CountQuery QueryA() {
  CountQuery query;
  query.qi_predicates.push_back(RangePredicate(0, 0, 30));   // Age <= 30
  query.qi_predicates.push_back(RangePredicate(2, 11, 20));  // Zip [11k, 20k]
  query.sensitive_predicate = AttributePredicate(0, {kPneumonia});
  return query;
}

// ------------------------------------------------------ AnatomyEstimator --

TEST(AnatomyEstimatorTest, PaperQueryAIsExact) {
  // Section 1.2: from the QIT/ST of Table 3, the estimate of query A is
  // p * 2 with p = 50% exactly -> 1, the true answer.
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  AnatomyEstimator estimator(tables.value());
  EXPECT_DOUBLE_EQ(estimator.Estimate(QueryA()), 1.0);
}

TEST(AnatomyEstimatorTest, FullSensitivePredicateIsExact) {
  // When pred(As) covers the whole domain, S_j = |QI_j| and the estimate
  // collapses to the exact count of QI-matching tuples.
  const Table census = GenerateCensus(4000, 21);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 2});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());

  AnatomyEstimator estimator(tables.value());
  ExactEvaluator exact(md);

  std::vector<Code> all(50);
  for (Code v = 0; v < 50; ++v) all[v] = v;

  WorkloadOptions options;
  options.qd = 2;
  options.s = 0.1;
  options.seed = 31;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  for (int i = 0; i < 30; ++i) {
    CountQuery query = generator.value().Next();
    query.sensitive_predicate = AttributePredicate(0, all);
    EXPECT_NEAR(estimator.Estimate(query),
                static_cast<double>(exact.Count(query)), 1e-6);
  }
}

TEST(AnatomyEstimatorTest, NoQiPredicatesIsExact) {
  // With no QI predicates p_j = 1, so the estimate is the exact count of
  // qualifying sensitive values (the ST publishes them exactly).
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  AnatomyEstimator estimator(tables.value());
  CountQuery query;
  query.sensitive_predicate = AttributePredicate(0, {2});  // flu: 2 tuples
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 2.0);
}

TEST(AnatomyEstimatorTest, DisjointSensitiveGivesZero) {
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  AnatomyEstimator estimator(tables.value());
  CountQuery query;
  query.sensitive_predicate = AttributePredicate(0, {});
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 0.0);
}

TEST(AnatomyEstimatorTest, ScratchStateIsCleanAcrossQueries) {
  // Back-to-back different queries must not contaminate each other through
  // the reused group-mass scratch buffer.
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  AnatomyEstimator estimator(tables.value());
  const double first = estimator.Estimate(QueryA());
  CountQuery other;
  other.sensitive_predicate = AttributePredicate(0, {2});
  EXPECT_DOUBLE_EQ(estimator.Estimate(other), 2.0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(QueryA()), first);
}

// ----------------------------------------------- GeneralizationEstimator --

TEST(GeneralizationEstimatorTest, PaperQueryAUnderestimates) {
  // Section 1.1: from the generalized table the researcher smears group 1's
  // two pneumonia tuples over the cell and grossly underestimates query A.
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  GeneralizationEstimator estimator(table.value());
  // Group 1 extents: Age [23, 59] (37 codes), Sex {M}, Zip [11, 59] (49).
  // p = (|{23..30}|/37) * (|{11..20}|/49) = (8/37) * (10/49); est = 2p.
  const double expected = 2.0 * (8.0 / 37.0) * (10.0 / 49.0);
  EXPECT_NEAR(estimator.Estimate(QueryA()), expected, 1e-12);
  // An order of magnitude below the true answer 1.
  EXPECT_LT(estimator.Estimate(QueryA()), 0.12);
}

TEST(GeneralizationEstimatorTest, SingletonGroupsAreExact) {
  // Groups of one tuple have unit cells: the estimator degenerates to exact
  // evaluation.
  const Microdata md = HospitalExample();
  Partition singletons;
  for (RowId r = 0; r < md.n(); ++r) singletons.AddGroup({&r, 1});
  auto table = GeneralizedTable::Build(md, singletons,
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  GeneralizationEstimator estimator(table.value());
  ExactEvaluator exact(md);
  EXPECT_DOUBLE_EQ(estimator.Estimate(QueryA()),
                   static_cast<double>(exact.Count(QueryA())));
}

TEST(GeneralizationEstimatorTest, DisjointQiRangeGivesZero) {
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  GeneralizationEstimator estimator(table.value());
  CountQuery query;
  query.qi_predicates.push_back(RangePredicate(0, 90, 99));  // no such ages
  query.sensitive_predicate = AttributePredicate(0, {kPneumonia});
  EXPECT_DOUBLE_EQ(estimator.Estimate(query), 0.0);
}

// ----------------------------------------------- Head-to-head comparison --

TEST(EstimatorComparisonTest, AnatomyBeatsGeneralizationOnCorrelatedData) {
  // The headline claim at modest scale: average relative error of anatomy is
  // well below generalization's on OCC-5.
  const Table census = GenerateCensus(20000, 42);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;

  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 1});
  auto anatomy_partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(anatomy_partition.ok());
  auto tables = AnatomizedTables::Build(md, anatomy_partition.value());
  ASSERT_TRUE(tables.ok());

  Mondrian mondrian(MondrianOptions{.l = 10});
  auto general_partition =
      mondrian.ComputePartition(md, dataset.value().taxonomies);
  ASSERT_TRUE(general_partition.ok());
  auto generalized = GeneralizedTable::Build(md, general_partition.value(),
                                             dataset.value().taxonomies);
  ASSERT_TRUE(generalized.ok());

  AnatomyEstimator anatomy_estimator(tables.value());
  GeneralizationEstimator generalization_estimator(generalized.value());
  ExactEvaluator exact(md);

  WorkloadOptions options;
  options.qd = 0;  // qd = d
  options.s = 0.05;
  options.seed = 3;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());

  double anatomy_err = 0;
  double general_err = 0;
  int evaluated = 0;
  while (evaluated < 150) {
    const CountQuery query = generator.value().Next();
    const uint64_t act = exact.Count(query);
    if (act == 0) continue;
    anatomy_err += std::abs(anatomy_estimator.Estimate(query) - act) / act;
    general_err +=
        std::abs(generalization_estimator.Estimate(query) - act) / act;
    ++evaluated;
  }
  anatomy_err /= evaluated;
  general_err /= evaluated;
  EXPECT_LT(anatomy_err, 0.25);
  EXPECT_GT(general_err, 2.0 * anatomy_err);
}

}  // namespace
}  // namespace anatomy
