#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "query/bitmap.h"
#include "query/bitmap_index.h"
#include "query/exact_evaluator.h"
#include "query/predicate.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::MakeSimpleMicrodata;
using testing_util::RangePredicate;

// --------------------------------------------------------------- Bitmap --

TEST(BitmapTest, SetTestCount) {
  Bitmap b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitmapTest, SetAllRespectsSize) {
  Bitmap b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  b.Reset(70);
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitmapTest, AndOrSemantics) {
  Bitmap a(100);
  Bitmap b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitmap or_result = a;
  or_result.OrWith(b);
  EXPECT_EQ(or_result.Count(), 3u);
  a.AndWith(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(2));
}

TEST(BitmapTest, ForEachSetBitInOrder) {
  Bitmap b(200);
  b.Set(5);
  b.Set(64);
  b.Set(199);
  std::vector<size_t> seen;
  b.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{5, 64, 199}));
}

// ------------------------------------------------------------ Predicate --

TEST(PredicateTest, SortsAndDeduplicates) {
  AttributePredicate pred(0, {5, 1, 5, 3});
  EXPECT_EQ(pred.values(), (std::vector<Code>{1, 3, 5}));
  EXPECT_EQ(pred.cardinality(), 3u);
  EXPECT_TRUE(pred.Matches(3));
  EXPECT_FALSE(pred.Matches(2));
}

TEST(PredicateTest, CountValuesIn) {
  AttributePredicate pred(0, {1, 3, 5, 7, 9});
  EXPECT_EQ(pred.CountValuesIn(CodeInterval{3, 7}), 3);
  EXPECT_EQ(pred.CountValuesIn(CodeInterval{0, 0}), 0);
  EXPECT_EQ(pred.CountValuesIn(CodeInterval{0, 100}), 5);
  EXPECT_EQ(pred.CountValuesIn(CodeInterval{2, 2}), 0);
  EXPECT_EQ(pred.CountValuesIn(CodeInterval{}), 0);
}

TEST(PredicateTest, QueryToString) {
  Microdata md = MakeSimpleMicrodata({{1, 2}});
  CountQuery query;
  query.qi_predicates.push_back(AttributePredicate(0, {1, 2}));
  query.sensitive_predicate = AttributePredicate(0, {3});
  const std::string s = query.ToString(md);
  EXPECT_NE(s.find("X IN {1, 2}"), std::string::npos);
  EXPECT_NE(s.find("S IN {3}"), std::string::npos);
}

// ----------------------------------------------------------- BitmapIndex --

TEST(BitmapIndexTest, PointPredicatesPartitionRows) {
  Microdata md = MakeSimpleMicrodata({{0, 1}, {1, 1}, {0, 2}}, 4, 4);
  BitmapIndex index(md.table, {0, 1});
  Bitmap value;
  index.PredicateBitmap(0, AttributePredicate(0, {0}), value);
  EXPECT_EQ(value.Count(), 2u);
  index.PredicateBitmap(0, AttributePredicate(0, {1}), value);
  EXPECT_EQ(value.Count(), 1u);
  index.PredicateBitmap(0, AttributePredicate(0, {3}), value);
  EXPECT_EQ(value.Count(), 0u);
  index.PredicateBitmap(1, AttributePredicate(0, {1}), value);
  EXPECT_EQ(value.Count(), 2u);
  // Out-of-domain codes are an empty bitmap, not a crash.
  index.PredicateBitmap(0, AttributePredicate(0, {4}), value);
  EXPECT_EQ(value.Count(), 0u);
  index.PredicateBitmap(0, AttributePredicate(0, {-1}), value);
  EXPECT_EQ(value.Count(), 0u);

  Bitmap out;
  index.PredicateBitmap(0, AttributePredicate(0, {0, 1}), out);
  EXPECT_EQ(out.Count(), 3u);
}

TEST(BitmapIndexTest, RowOrderPermutesBitPositions) {
  // With an explicit row order, bit i describes row row_order[i]: the
  // group-clustered engine relies on exactly this to give every group a
  // contiguous bit range.
  Microdata md = MakeSimpleMicrodata({{0, 1}, {1, 1}, {0, 2}}, 4, 4);
  const std::vector<RowId> order = {2, 0, 1};
  BitmapIndex index(md.table, {0}, &order);
  Bitmap value;
  // Only row 1 carries code 1, and it sits at bit 2.
  index.PredicateBitmap(0, AttributePredicate(0, {1}), value);
  EXPECT_FALSE(value.Test(0));
  EXPECT_FALSE(value.Test(1));
  EXPECT_TRUE(value.Test(2));
}

TEST(BitmapTest, AndWithAndOrWithAndNot) {
  Bitmap a(130), b(130);
  a.Set(0);
  a.Set(64);
  a.Set(129);
  b.Set(64);
  b.Set(100);
  Bitmap c = a;
  c.AndWith(b);
  EXPECT_EQ(c.size(), 130u);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_TRUE(c.Test(64));

  Bitmap d(130);
  d.OrWithAndNot(a, &b);  // a & ~b
  EXPECT_EQ(d.Count(), 2u);
  EXPECT_TRUE(d.Test(0));
  EXPECT_TRUE(d.Test(129));
  Bitmap e(130);
  e.OrWithAndNot(a, nullptr);  // just a
  EXPECT_EQ(e.Count(), 3u);
}

// -------------------------------------------------------- ExactEvaluator --

TEST(ExactEvaluatorTest, PaperQueryA) {
  // Query A of Section 1.1 on Table 1: Disease = pneumonia AND Age <= 30
  // AND Zipcode in [10001, 20000] -> exactly tuple 1.
  const Microdata md = HospitalExample();
  CountQuery query;
  query.qi_predicates.push_back(RangePredicate(0, 0, 30));    // Age <= 30
  query.qi_predicates.push_back(RangePredicate(2, 11, 20));   // Zipcode
  query.sensitive_predicate = AttributePredicate(0, {4});     // pneumonia
  ExactEvaluator evaluator(md);
  EXPECT_EQ(evaluator.Count(query), 1u);
  EXPECT_EQ(CountByScan(md, query), 1u);
}

TEST(ExactEvaluatorTest, EmptySensitivePredicateGivesZero) {
  const Microdata md = HospitalExample();
  CountQuery query;
  query.sensitive_predicate = AttributePredicate(0, {});
  ExactEvaluator evaluator(md);
  EXPECT_EQ(evaluator.Count(query), 0u);
}

TEST(ExactEvaluatorTest, NoQiPredicatesCountsSensitiveOnly) {
  const Microdata md = HospitalExample();
  CountQuery query;
  query.sensitive_predicate = AttributePredicate(0, {2});  // flu
  ExactEvaluator evaluator(md);
  EXPECT_EQ(evaluator.Count(query), 2u);
}

TEST(ExactEvaluatorTest, AgreesWithScanOnRandomWorkload) {
  const Table census = GenerateCensus(5000, 17);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  WorkloadOptions options;
  options.qd = 3;
  options.s = 0.05;
  options.seed = 23;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  ExactEvaluator evaluator(md);
  for (int i = 0; i < 50; ++i) {
    const CountQuery query = generator.value().Next();
    EXPECT_EQ(evaluator.Count(query), CountByScan(md, query));
  }
}

// -------------------------------------------------------------- Workload --

TEST(WorkloadTest, EquationFourteen) {
  // b = ceil(|A| * s^(1/(qd+1))).
  EXPECT_EQ(PredicateCardinality(78, 0.05, 3), 37u);   // 78 * 0.05^0.25
  EXPECT_EQ(PredicateCardinality(50, 0.05, 3), 24u);
  EXPECT_EQ(PredicateCardinality(2, 0.05, 1), 1u);     // floor at 1
  EXPECT_EQ(PredicateCardinality(10, 1.0, 2), 10u);    // s = 1: whole domain
}

TEST(WorkloadTest, GeneratorRespectsQdAndDomains) {
  const Table census = GenerateCensus(1000, 3);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kSalaryClass, 6);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  WorkloadOptions options;
  options.qd = 4;
  options.s = 0.05;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  for (int q = 0; q < 20; ++q) {
    const CountQuery query = generator.value().Next();
    EXPECT_EQ(query.qi_predicates.size(), 4u);
    std::set<size_t> attrs;
    for (const auto& pred : query.qi_predicates) {
      EXPECT_LT(pred.qi_index(), md.d());
      attrs.insert(pred.qi_index());
      const Code domain = md.qi_attribute(pred.qi_index()).domain_size;
      EXPECT_EQ(pred.cardinality(),
                PredicateCardinality(domain, options.s, 4));
      for (Code v : pred.values()) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, domain);
      }
    }
    EXPECT_EQ(attrs.size(), 4u);  // distinct attributes
  }
}

TEST(WorkloadTest, QdZeroMeansAllAttributes) {
  const Microdata md = HospitalExample();
  WorkloadOptions options;
  options.qd = 0;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  EXPECT_EQ(generator.value().qd(), 3);
  EXPECT_EQ(generator.value().Next().qi_predicates.size(), 3u);
}

TEST(WorkloadTest, RejectsBadParameters) {
  const Microdata md = HospitalExample();
  WorkloadOptions options;
  options.qd = 4;  // > d
  EXPECT_FALSE(WorkloadGenerator::Create(md, options).ok());
  options.qd = 1;
  options.s = 0.0;
  EXPECT_FALSE(WorkloadGenerator::Create(md, options).ok());
  options.s = 1.5;
  EXPECT_FALSE(WorkloadGenerator::Create(md, options).ok());
}

TEST(WorkloadTest, DeterministicInSeed) {
  const Microdata md = HospitalExample();
  WorkloadOptions options;
  options.qd = 2;
  options.seed = 44;
  auto a = WorkloadGenerator::Create(md, options);
  auto b = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 10; ++i) {
    const CountQuery qa = a.value().Next();
    const CountQuery qb = b.value().Next();
    ASSERT_EQ(qa.qi_predicates.size(), qb.qi_predicates.size());
    for (size_t j = 0; j < qa.qi_predicates.size(); ++j) {
      EXPECT_EQ(qa.qi_predicates[j].qi_index(),
                qb.qi_predicates[j].qi_index());
      EXPECT_EQ(qa.qi_predicates[j].values(), qb.qi_predicates[j].values());
    }
    EXPECT_EQ(qa.sensitive_predicate.values(),
              qb.sensitive_predicate.values());
  }
}

}  // namespace
}  // namespace anatomy
