#include <cmath>

#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/join.h"
#include "anatomy/rce.h"
#include "data/census.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;
using testing_util::MakeRoundRobinMicrodata;

/// The paper's grouping of Table 1 (tuples 1-4 and 5-8, 0-based here),
/// which produces exactly Tables 3a/3b.
Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

constexpr Code kBronchitis = 0;
constexpr Code kDyspepsia = 1;
constexpr Code kFlu = 2;
constexpr Code kGastritis = 3;
constexpr Code kPneumonia = 4;

TEST(AnatomizedTablesTest, ReproducesTable3) {
  const Microdata md = HospitalExample();
  auto built = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const AnatomizedTables& tables = built.value();

  // --- QIT (Table 3a): exact QI values + Group-ID, no Disease column. ---
  const Table& qit = tables.qit();
  ASSERT_EQ(qit.num_columns(), 4u);  // Age, Sex, Zipcode, Group-ID
  EXPECT_EQ(qit.schema().attribute(3).name, "Group-ID");
  ASSERT_EQ(qit.num_rows(), 8u);
  EXPECT_EQ(qit.at(0, 0), 23);  // Bob's exact age is published
  EXPECT_EQ(qit.at(0, 3), 0);   // group 1 (displayed 1-based)
  EXPECT_EQ(qit.at(4, 3), 1);   // tuple 5 in group 2
  EXPECT_EQ(qit.schema().attribute(3).FormatCode(qit.at(0, 3)), "1");

  // --- ST (Table 3b): per-group disease histogram. ---
  const Table& st = tables.st();
  ASSERT_EQ(st.num_columns(), 3u);
  ASSERT_EQ(st.num_rows(), 5u);  // 2 records for group 1, 3 for group 2
  EXPECT_EQ(tables.GroupCount(0, kDyspepsia), 2u);
  EXPECT_EQ(tables.GroupCount(0, kPneumonia), 2u);
  EXPECT_EQ(tables.GroupCount(0, kFlu), 0u);
  EXPECT_EQ(tables.GroupCount(1, kBronchitis), 1u);
  EXPECT_EQ(tables.GroupCount(1, kFlu), 2u);
  EXPECT_EQ(tables.GroupCount(1, kGastritis), 1u);
  EXPECT_EQ(tables.TotalStRecords(), 5u);

  EXPECT_EQ(tables.num_groups(), 2u);
  EXPECT_EQ(tables.group_size(0), 4u);
  EXPECT_EQ(tables.group_of_row(6), 1u);
}

TEST(AnatomizedTablesTest, RejectsBadPartition) {
  const Microdata md = HospitalExample();
  Partition bad = MakePartition({{0, 1}});  // does not cover the table
  EXPECT_FALSE(AnatomizedTables::Build(md, bad).ok());
}

TEST(JoinTest, ReproducesTable4) {
  const Microdata md = HospitalExample();
  auto built = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(built.ok());
  const Table joined = JoinQitSt(built.value());

  // d + 3 = 6 attributes (Lemma 1).
  ASSERT_EQ(joined.num_columns(), 6u);
  // Group 1 tuples join 2 ST records each, group 2 tuples 3 each.
  ASSERT_EQ(joined.num_rows(), 4u * 2 + 4u * 3);

  // First two records: tuple 1 (Bob) with dyspepsia/2 then pneumonia/2,
  // exactly Table 4's first rows.
  EXPECT_EQ(joined.at(0, 0), 23);
  EXPECT_EQ(joined.at(0, 4), kDyspepsia);
  EXPECT_EQ(joined.at(0, 5), 2);
  EXPECT_EQ(joined.at(1, 4), kPneumonia);
  EXPECT_EQ(joined.at(1, 5), 2);

  // Equation 2 from the join: Bob has 2/4 = 50% for each of the two
  // diseases, and zero for everything else.
  const AnatomizedTables& tables = built.value();
  EXPECT_DOUBLE_EQ(
      static_cast<double>(joined.at(0, 5)) / tables.group_size(0), 0.5);
}

// ------------------------------------------------------------------ RCE --

TEST(RceTest, TupleErrClosedFormMatchesBruteForce) {
  // Group histogram {a: 2, b: 1, c: 1}, size 4.
  std::vector<std::pair<Code, uint32_t>> hist = {{0, 2}, {1, 1}, {2, 1}};
  // Brute force Equation 12 for a tuple with value a: the reconstructed pdf
  // puts 2/4 on a, 1/4 on b, 1/4 on c; the true pdf is 1 on a.
  const double expected =
      (1.0 - 0.5) * (1.0 - 0.5) + 0.25 * 0.25 + 0.25 * 0.25;
  EXPECT_DOUBLE_EQ(TupleErrAnatomy(hist, 4, 0), expected);
  // For a tuple with value b.
  const double expected_b =
      (1.0 - 0.25) * (1.0 - 0.25) + 0.5 * 0.5 + 0.25 * 0.25;
  EXPECT_DOUBLE_EQ(TupleErrAnatomy(hist, 4, 1), expected_b);
}

TEST(RceTest, PaperExampleDistance) {
  // Section 4: the anatomy-reconstructed pdf of tuple 1 has L2^2 distance
  // 0.5 from the actual pdf (two spikes of 1/2).
  std::vector<std::pair<Code, uint32_t>> hist = {{kDyspepsia, 2},
                                                 {kPneumonia, 2}};
  EXPECT_DOUBLE_EQ(TupleErrAnatomy(hist, 4, kPneumonia), 0.5);
}

TEST(RceTest, AnatomyRceOfPaperPartition) {
  const Microdata md = HospitalExample();
  auto tables = AnatomizedTables::Build(md, PaperPartition());
  ASSERT_TRUE(tables.ok());
  // Group 1: 4 tuples, each Err = 0.5 -> 2.0.
  // Group 2: histogram {flu:2, gastritis:1, bronchitis:1}:
  //   2 flu tuples:      (1-1/2)^2 + 2*(1/4)^2          = 0.375
  //   2 single tuples:   (1-1/4)^2 + (1/2)^2 + (1/4)^2  = 0.875
  const double expected = 4 * 0.5 + 2 * 0.375 + 2 * 0.875;
  EXPECT_NEAR(AnatomyRce(tables.value()), expected, 1e-12);
}

TEST(RceTest, LowerBoundAndGuarantee) {
  EXPECT_DOUBLE_EQ(RceLowerBound(1000, 10), 900.0);
  // l | n: the guarantee equals the lower bound (Theorem 4 case 1).
  EXPECT_DOUBLE_EQ(AnatomizeRceGuarantee(1000, 10), 900.0);
  // Otherwise it exceeds it by factor 1 + r/(n(l-1)) <= 1 + 1/n.
  const double g = AnatomizeRceGuarantee(1003, 10);
  EXPECT_GT(g, 900.0);
  EXPECT_LE(g, RceLowerBound(1003, 10) * (1.0 + 1.0 / 1003));
}

struct RceCase {
  int l;
  RowId n;
};

class AnatomizeRceTest : public ::testing::TestWithParam<RceCase> {};

TEST_P(AnatomizeRceTest, AchievesTheoremFourExactly) {
  const auto [l, n] = GetParam();
  const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = 99});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());

  // Anatomize's groups always have pairwise-distinct sensitive values, so
  // its RCE equals the Theorem 4 value exactly, not just within the bound.
  const double rce = AnatomyRce(tables.value());
  EXPECT_NEAR(rce, AnatomizeRceGuarantee(n, l), 1e-6);
  EXPECT_GE(rce, RceLowerBound(n, l) - 1e-9);
  EXPECT_LE(rce, RceLowerBound(n, l) * (1.0 + 1.0 / n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnatomizeRceTest,
                         ::testing::Values(RceCase{2, 64}, RceCase{2, 65},
                                           RceCase{5, 1000}, RceCase{5, 1004},
                                           RceCase{10, 2000},
                                           RceCase{10, 2009},
                                           RceCase{16, 1600}));

}  // namespace
}  // namespace anatomy
