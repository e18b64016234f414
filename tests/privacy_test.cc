#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_table.h"
#include "generalization/mondrian.h"
#include "privacy/breach.h"
#include "privacy/ldiversity.h"
#include "privacy/voter_attack.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;

constexpr Code kDyspepsia = 1;
constexpr Code kFlu = 2;
constexpr Code kGastritis = 3;
constexpr Code kPneumonia = 4;

Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

AnatomizedTables PaperTables() {
  auto tables = AnatomizedTables::Build(HospitalExample(), PaperPartition());
  ANATOMY_CHECK_OK(tables.status());
  return std::move(tables).value();
}

// ------------------------------------------------------------ Diversity --

TEST(LDiversityTest, PaperTablesAreTwoDiverse) {
  const AnatomizedTables tables = PaperTables();
  EXPECT_TRUE(VerifyAnatomizedLDiversity(tables, 2).ok());
  EXPECT_FALSE(VerifyAnatomizedLDiversity(tables, 3).ok());
}

TEST(LDiversityTest, GeneralizedVerification) {
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(VerifyGeneralizedLDiversity(table.value(), 2).ok());
  EXPECT_FALSE(VerifyGeneralizedLDiversity(table.value(), 3).ok());
}

TEST(RecursiveClTest, GroupLevelSemantics) {
  // Histogram counts sorted desc: {4, 3, 2, 1}. (c,2)-diversity requires
  // 4 < c * (3 + 2 + 1) = 6c, i.e. c > 2/3.
  std::vector<std::pair<Code, uint32_t>> hist = {
      {0, 4}, {1, 3}, {2, 2}, {3, 1}};
  EXPECT_TRUE(GroupIsRecursiveClDiverse(hist, 1.0, 2));
  EXPECT_FALSE(GroupIsRecursiveClDiverse(hist, 0.5, 2));
  // (c,4): 4 < c * 1.
  EXPECT_FALSE(GroupIsRecursiveClDiverse(hist, 2.0, 4));
  EXPECT_TRUE(GroupIsRecursiveClDiverse(hist, 5.0, 4));
  // Fewer than l distinct values always fails.
  EXPECT_FALSE(GroupIsRecursiveClDiverse(hist, 100.0, 5));
}

TEST(RecursiveClTest, AnatomizeOutputIsHighlyRecursiveDiverse) {
  // Anatomize groups have all-distinct values (counts all 1): recursively
  // (c, l)-diverse for any c > 1/(distinct - l + 1) and l <= group size.
  const Microdata md = testing_util::MakeRoundRobinMicrodata(1000, 64, 16);
  Anatomizer anatomizer(AnatomizerOptions{.l = 8, .seed = 2});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(VerifyRecursiveClDiversity(tables.value(), 1.01, 8).ok());
}

// --------------------------------------------------------------- Breach --

TEST(BreachTest, BobTupleLevel) {
  // Section 1.2: Bob (tuple 1, group 1) has 50% for dyspepsia or pneumonia
  // and 0 for anything else.
  const AnatomizedTables tables = PaperTables();
  EXPECT_DOUBLE_EQ(TupleBreachProbability(tables, 0, kPneumonia), 0.5);
  EXPECT_DOUBLE_EQ(TupleBreachProbability(tables, 0, kDyspepsia), 0.5);
  EXPECT_DOUBLE_EQ(TupleBreachProbability(tables, 0, kFlu), 0.0);
}

TEST(BreachTest, AliceIndividualLevel) {
  // Section 3.2: Alice's QI values (65, F, 25000) match tuples 6 and 7; both
  // scenarios give 50% for flu, so the individual-level breach is 50%.
  const AnatomizedTables tables = PaperTables();
  const std::vector<Code> alice = {65, 0, 25};
  EXPECT_EQ(MatchingQitRows(tables, alice).size(), 2u);
  EXPECT_DOUBLE_EQ(IndividualBreachProbability(tables, alice, kFlu), 0.5);
  // Gastritis: tuple 6 carries it; each candidate gives 1/4 -> average 1/4.
  EXPECT_DOUBLE_EQ(IndividualBreachProbability(tables, alice, kGastritis),
                   0.25);
}

TEST(BreachTest, AbsentIndividual) {
  const AnatomizedTables tables = PaperTables();
  const std::vector<Code> emily = {67, 0, 33};
  EXPECT_TRUE(MatchingQitRows(tables, emily).empty());
  EXPECT_DOUBLE_EQ(IndividualBreachProbability(tables, emily, kFlu), 0.0);
}

TEST(BreachTest, GeneralizedIndividualLevel) {
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  // Alice falls in group 2's cell only; 2 of its 4 tuples carry flu.
  EXPECT_DOUBLE_EQ(GeneralizedIndividualBreachProbability(
                       table.value(), {65, 0, 25}, kFlu),
                   0.5);
}

TEST(BreachTest, CorollaryOneBoundHolds) {
  // Max tuple breach <= 1/l across a sweep of anatomizations.
  const Table census = GenerateCensus(5000, 9);
  for (int l : {2, 5, 10}) {
    auto dataset =
        MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
    ASSERT_TRUE(dataset.ok());
    const Microdata& md = dataset.value().microdata;
    Anatomizer anatomizer(
        AnatomizerOptions{.l = l, .seed = static_cast<uint64_t>(l)});
    auto partition = anatomizer.ComputePartition(md);
    ASSERT_TRUE(partition.ok());
    auto tables = AnatomizedTables::Build(md, partition.value());
    ASSERT_TRUE(tables.ok());
    EXPECT_LE(MaxTupleBreachProbability(tables.value()), 1.0 / l + 1e-12);
  }
}

// --------------------------------------------------------- Voter attack --

TEST(VoterAttackTest, RegistryFromTable) {
  auto registry = RegistryFromTable(VoterRegistrationList());
  ASSERT_EQ(registry.size(), 5u);
  EXPECT_EQ(registry[1].name, "Alice");
  EXPECT_EQ(registry[1].qi_values, (std::vector<Code>{65, 0, 25}));
}

TEST(VoterAttackTest, Section33AliceNumbers) {
  const Microdata md = HospitalExample();
  const auto registry = RegistryFromTable(VoterRegistrationList());
  const RegisteredPerson& alice = registry[1];

  // Anatomy: QIT pins Alice's presence exactly -> Pr_A2 = 1 (two matching
  // tuples shared by two registered persons), breach 50%.
  const AnatomizedTables tables = PaperTables();
  const AttackOutcome anatomy = AttackAnatomized(tables, registry, alice, kFlu);
  EXPECT_DOUBLE_EQ(anatomy.pr_in_microdata, 1.0);
  EXPECT_DOUBLE_EQ(anatomy.pr_breach_given_in, 0.5);
  EXPECT_DOUBLE_EQ(anatomy.OverallBreach(), 0.5);
  EXPECT_LE(anatomy.OverallBreach(), 0.5 + 1e-12);  // the 1/l bound, l = 2

  // Generalization: 4 tuples in the compatible group, 5 compatible persons
  // (including Emily) -> Pr_A2 = 4/5, conditional breach 50%.
  auto generalized = GeneralizedTable::Build(
      md, PaperPartition(), TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(generalized.ok());
  const AttackOutcome general =
      AttackGeneralized(generalized.value(), registry, alice, kFlu);
  EXPECT_DOUBLE_EQ(general.pr_in_microdata, 0.8);
  EXPECT_DOUBLE_EQ(general.pr_breach_given_in, 0.5);
  EXPECT_DOUBLE_EQ(general.OverallBreach(), 0.4);
}

TEST(VoterAttackTest, EmilyIsProvablyAbsentUnderAnatomy) {
  // Section 3.3: from the exact QIT the adversary sees Emily's QI values
  // nowhere -> no inference at all.
  const auto registry = RegistryFromTable(VoterRegistrationList());
  const RegisteredPerson& emily = registry[3];
  const AttackOutcome outcome =
      AttackAnatomized(PaperTables(), registry, emily, kFlu);
  EXPECT_DOUBLE_EQ(outcome.OverallBreach(), 0.0);
}

TEST(VoterAttackTest, MembershipAuditQuantifiesTheTradeoff) {
  // Section 3.3's membership disclosure, quantified over the registry:
  // anatomy decides every entry's membership with certainty; generalization
  // leaves everyone uncertain (4/5 here).
  const Microdata md = HospitalExample();
  auto generalized = GeneralizedTable::Build(
      md, PaperPartition(), TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(generalized.ok());
  const auto registry = RegistryFromTable(VoterRegistrationList());
  const MembershipReport report =
      AnalyzeMembership(PaperTables(), generalized.value(), registry);
  ASSERT_EQ(report.anatomy_pr.size(), registry.size());
  EXPECT_DOUBLE_EQ(MembershipReport::CertaintyRate(report.anatomy_pr), 1.0);
  EXPECT_DOUBLE_EQ(MembershipReport::CertaintyRate(report.generalization_pr),
                   0.0);
  EXPECT_DOUBLE_EQ(report.anatomy_pr[3], 0.0);         // Emily: provably out
  EXPECT_DOUBLE_EQ(report.generalization_pr[3], 0.8);  // Emily: plausible
}

TEST(VoterAttackTest, EmilyDilutesGeneralizationOnly) {
  // Under generalization Emily IS compatible with group 2's cell, so she
  // stays a candidate (that is exactly why Pr_A2 drops to 4/5 for Alice).
  const Microdata md = HospitalExample();
  auto generalized = GeneralizedTable::Build(
      md, PaperPartition(), TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(generalized.ok());
  const auto registry = RegistryFromTable(VoterRegistrationList());
  const AttackOutcome outcome =
      AttackGeneralized(generalized.value(), registry, registry[3], kFlu);
  EXPECT_GT(outcome.pr_in_microdata, 0.0);
}

}  // namespace
}  // namespace anatomy
