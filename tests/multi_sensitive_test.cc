#include <set>

#include <gtest/gtest.h>

#include "anatomy/multi_sensitive.h"
#include "data/census.h"
#include "data/census_generator.h"

namespace anatomy {
namespace {

MultiMicrodata CensusMulti(RowId n, uint64_t seed) {
  MultiMicrodata md;
  md.table = GenerateCensus(n, seed);
  md.qi_columns = {kAge, kGender, kEducation, kMarital, kRace};
  md.sensitive_columns = {kOccupation, kSalaryClass};
  return md;
}

TEST(MultiMicrodataTest, ValidateRejectsOverlap) {
  MultiMicrodata md = CensusMulti(100, 1);
  EXPECT_TRUE(md.Validate().ok());
  md.sensitive_columns.push_back(kAge);  // also a QI
  EXPECT_FALSE(md.Validate().ok());

  md = CensusMulti(100, 1);
  md.sensitive_columns = {};
  EXPECT_FALSE(md.Validate().ok());

  md = CensusMulti(100, 1);
  md.sensitive_columns = {kOccupation, kOccupation};
  EXPECT_FALSE(md.Validate().ok());
}

TEST(MultiMicrodataTest, WithSensitiveViews) {
  const MultiMicrodata md = CensusMulti(100, 1);
  const Microdata occ = md.WithSensitive(0);
  EXPECT_EQ(occ.sensitive_column, kOccupation);
  const Microdata sal = md.WithSensitive(1);
  EXPECT_EQ(sal.sensitive_column, kSalaryClass);
  EXPECT_EQ(occ.qi_columns, md.qi_columns);
}

TEST(MultiAnatomizerTest, SimultaneousDiversityOnCensus) {
  const MultiMicrodata md = CensusMulti(8000, 42);
  MultiAnatomizer anatomizer(MultiAnatomizerOptions{.l = 8, .seed = 3});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(ValidateMultiLDiverse(md, partition.value(), 8).ok());
  // Every group carries pairwise-distinct values on BOTH attributes.
  for (GroupId g = 0; g < partition.value().num_groups(); ++g) {
    const std::span<const RowId> group = partition.value().group(g);
    EXPECT_GE(group.size(), 8u);
    for (size_t s = 0; s < md.sensitive_columns.size(); ++s) {
      std::set<Code> values;
      for (RowId r : group) {
        values.insert(md.table.at(r, md.sensitive_columns[s]));
      }
      EXPECT_EQ(values.size(), group.size());
    }
  }
}

TEST(MultiAnatomizerTest, FailsWhenAnyAttributeIneligible) {
  MultiMicrodata md = CensusMulti(1000, 5);
  // Make Salary-class constant: not even 2-eligible.
  for (RowId r = 0; r < md.table.num_rows(); ++r) {
    md.table.set(r, kSalaryClass, 0);
  }
  MultiAnatomizer anatomizer(MultiAnatomizerOptions{.l = 2});
  EXPECT_EQ(anatomizer.ComputePartition(md).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MultiAnatomizerTest, StrandedTupleIsAFailedPrecondition) {
  // Both attributes are 2-eligible, and {0, 1}, {3, 2}, {4, 5} is
  // simultaneously 2-diverse. The greedy draw still leaves one tuple that
  // every group it formed conflicts with, under each of these seeds: an
  // outcome of the data, not a bug.
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("X", 6));
  defs.push_back(MakeCategorical("A", 4));
  defs.push_back(MakeCategorical("B", 4));
  MultiMicrodata md;
  md.table = Table(std::make_shared<Schema>(std::move(defs)));
  const Code rows[6][2] = {{1, 3}, {0, 2}, {2, 1}, {1, 3}, {0, 3}, {3, 0}};
  for (Code x = 0; x < 6; ++x) {
    const Code row[3] = {x, rows[x][0], rows[x][1]};
    md.table.AppendRow(row);
  }
  md.qi_columns = {0};
  md.sensitive_columns = {1, 2};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto partition =
        MultiAnatomizer({.l = 2, .seed = seed}).ComputePartition(md);
    EXPECT_EQ(partition.status().code(), StatusCode::kFailedPrecondition)
        << partition.status().ToString();
  }
}

TEST(MultiAnatomizerTest, SingleAttributeDegeneratesToAnatomy) {
  MultiMicrodata md = CensusMulti(3000, 7);
  md.sensitive_columns = {kOccupation};
  MultiAnatomizer anatomizer(MultiAnatomizerOptions{.l = 10, .seed = 1});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(ValidateMultiLDiverse(md, partition.value(), 10).ok());
}

TEST(MultiAnatomizerTest, BuildsOneStPerAttribute) {
  const MultiMicrodata md = CensusMulti(2000, 9);
  MultiAnatomizer anatomizer(MultiAnatomizerOptions{.l = 5, .seed = 1});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  const std::vector<Table> sts = BuildMultiSt(md, partition.value());
  ASSERT_EQ(sts.size(), 2u);
  EXPECT_EQ(sts[0].schema().attribute(1).name, "Occupation");
  EXPECT_EQ(sts[1].schema().attribute(1).name, "Salary-class");
  // Total counts in each ST equal the cardinality.
  for (const Table& st : sts) {
    uint64_t total = 0;
    for (RowId r = 0; r < st.num_rows(); ++r) total += st.at(r, 2);
    EXPECT_EQ(total, md.n());
  }
}

}  // namespace
}  // namespace anatomy
