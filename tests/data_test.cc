#include <vector>

#include <gtest/gtest.h>

#include "anatomy/eligibility.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "table/stats.h"

namespace anatomy {
namespace {

// ------------------------------------------------------------ Schema --

TEST(CensusSchemaTest, MatchesTable6DomainSizes) {
  SchemaPtr schema = CensusSchema();
  ASSERT_EQ(schema->num_attributes(), kCensusNumColumns);
  EXPECT_EQ(schema->attribute(kAge).domain_size, 78);
  EXPECT_EQ(schema->attribute(kGender).domain_size, 2);
  EXPECT_EQ(schema->attribute(kEducation).domain_size, 17);
  EXPECT_EQ(schema->attribute(kMarital).domain_size, 6);
  EXPECT_EQ(schema->attribute(kRace).domain_size, 9);
  EXPECT_EQ(schema->attribute(kWorkClass).domain_size, 10);
  EXPECT_EQ(schema->attribute(kCountry).domain_size, 83);
  EXPECT_EQ(schema->attribute(kOccupation).domain_size, 50);
  EXPECT_EQ(schema->attribute(kSalaryClass).domain_size, 50);
}

TEST(CensusTaxonomiesTest, MatchesTable6Methods) {
  const TaxonomySet set = CensusTaxonomies();
  ASSERT_EQ(set.size(), kCensusNumColumns);
  EXPECT_TRUE(set.at(kAge).is_free());
  EXPECT_EQ(set.at(kGender).height(), 2);
  EXPECT_TRUE(set.at(kEducation).is_free());
  EXPECT_EQ(set.at(kMarital).height(), 3);
  EXPECT_EQ(set.at(kRace).height(), 2);
  EXPECT_EQ(set.at(kWorkClass).height(), 4);
  EXPECT_EQ(set.at(kCountry).height(), 3);
}

TEST(HospitalExampleTest, MatchesTable1) {
  const Microdata md = HospitalExample();
  ASSERT_EQ(md.n(), 8u);
  ASSERT_EQ(md.d(), 3u);
  // Tuple 1 is Bob: age 23, M, zipcode 11000, pneumonia.
  EXPECT_EQ(md.qi_attribute(0).FormatCode(md.qi_value(0, 0)), "23");
  EXPECT_EQ(md.qi_attribute(1).FormatCode(md.qi_value(0, 1)), "M");
  EXPECT_EQ(md.qi_attribute(2).FormatCode(md.qi_value(0, 2)), "11000");
  EXPECT_EQ(md.sensitive_attribute().FormatCode(md.sensitive_value(0)),
            "pneumonia");
  // Tuple 7 is Alice: 65, F, 25000, flu.
  EXPECT_EQ(md.qi_value(6, 0), 65);
  EXPECT_EQ(md.sensitive_attribute().FormatCode(md.sensitive_value(6)), "flu");
  // Eligible for 2-diversity but not 5-diversity (8/2 = 4 >= max count 2).
  EXPECT_TRUE(CheckEligibility(md, 2).ok());
  EXPECT_EQ(MaxEligibleL(md), 4);
}

TEST(VoterListTest, MatchesTable5) {
  const Table voters = VoterRegistrationList();
  ASSERT_EQ(voters.num_rows(), 5u);
  EXPECT_EQ(voters.schema().attribute(0).FormatCode(voters.at(1, 0)), "Alice");
  EXPECT_EQ(voters.at(1, 1), 65);
  EXPECT_EQ(voters.schema().attribute(3).FormatCode(voters.at(3, 3)), "33000");
}

// ---------------------------------------------------------- Generator --

TEST(CensusGeneratorTest, DeterministicInSeed) {
  const Table a = GenerateCensus(2000, 11);
  const Table b = GenerateCensus(2000, 11);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column(c), b.column(c)) << "column " << c;
  }
  const Table other = GenerateCensus(2000, 12);
  EXPECT_NE(a.column(kAge), other.column(kAge));
}

TEST(CensusGeneratorTest, AllValuesInDomain) {
  const Table t = GenerateCensus(5000, 3);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Code domain = t.schema().attribute(c).domain_size;
    for (Code v : t.column(c)) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, domain);
    }
  }
}

TEST(CensusGeneratorTest, BothSensitiveAttributesAreTenEligible) {
  // The paper's experiments run at l = 10 on 100k..500k tuples; eligibility
  // must hold with margin at a modest 30k.
  const Table t = GenerateCensus(30000, 42);
  for (size_t sens : {kOccupation, kSalaryClass}) {
    Microdata md;
    md.table = t;
    md.qi_columns = {kAge, kGender, kEducation, kMarital, kRace};
    md.sensitive_column = sens;
    EXPECT_TRUE(CheckEligibility(md, 10).ok())
        << t.schema().attribute(sens).name;
    EXPECT_GE(MaxEligibleL(md), 12) << t.schema().attribute(sens).name;
  }
}

TEST(CensusGeneratorTest, AttributesAreCorrelated) {
  // The paper's accuracy gap requires QI <-> sensitive correlation; verify
  // the generator's dependency arrows carry real mutual information.
  const Table t = GenerateCensus(30000, 42);
  EXPECT_GT(MutualInformation(t, kEducation, kOccupation), 0.05);
  EXPECT_GT(MutualInformation(t, kEducation, kSalaryClass), 0.10);
  EXPECT_GT(MutualInformation(t, kAge, kMarital), 0.15);
  EXPECT_GT(MutualInformation(t, kCountry, kRace), 0.30);
  EXPECT_GT(MutualInformation(t, kAge, kSalaryClass), 0.05);
  EXPECT_GT(MutualInformation(t, kWorkClass, kOccupation), 0.02);
}

TEST(CensusGeneratorTest, MarginalsAreNonUniform) {
  const Table t = GenerateCensus(30000, 42);
  // Country is heavy-headed: code 0 dominates.
  auto country = ColumnHistogram(t, kCountry);
  EXPECT_GT(country[0], t.num_rows() / 2);
  // Age entropy well below uniform log2(78) = 6.3 bits.
  EXPECT_LT(ColumnEntropy(t, kAge), 6.0);
  EXPECT_GT(ColumnEntropy(t, kAge), 3.0);
}

TEST(CensusGeneratorTest, CountryIsNativeThenAZipfTail) {
  // 72% native-born (code 0); the other rows follow Zipf(0.55) over the 82
  // remaining codes, whose top rank takes ~6.9% of them.
  const Table t = GenerateCensus(30000, 42);
  const std::vector<uint32_t> country = ColumnHistogram(t, kCountry);
  const double rows = t.num_rows();
  EXPECT_NEAR(country[0] / rows, 0.72, 0.02);
  const double non_native = rows - country[0];
  for (size_t c = 1; c < country.size(); ++c) {
    EXPECT_LE(country[c], 0.10 * non_native) << "country code " << c;
  }
}

// ------------------------------------------------------------ Dataset --

TEST(DatasetTest, OccAndSalProjections) {
  const Table census = GenerateCensus(3000, 5);
  auto occ = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 3);
  ASSERT_TRUE(occ.ok());
  EXPECT_EQ(occ.value().name, "OCC-3");
  const Microdata& md = occ.value().microdata;
  EXPECT_EQ(md.d(), 3u);
  EXPECT_EQ(md.table.num_columns(), 4u);
  EXPECT_EQ(md.qi_attribute(0).name, "Age");
  EXPECT_EQ(md.qi_attribute(2).name, "Education");
  EXPECT_EQ(md.sensitive_attribute().name, "Occupation");
  EXPECT_EQ(occ.value().taxonomies.size(), 4u);
  EXPECT_TRUE(occ.value().taxonomies.at(0).is_free());
  EXPECT_EQ(occ.value().taxonomies.at(1).height(), 2);

  auto sal = MakeExperimentDataset(census, SensitiveFamily::kSalaryClass, 7);
  ASSERT_TRUE(sal.ok());
  EXPECT_EQ(sal.value().name, "SAL-7");
  EXPECT_EQ(sal.value().microdata.sensitive_attribute().name, "Salary-class");
  EXPECT_EQ(sal.value().microdata.d(), 7u);

  EXPECT_FALSE(MakeExperimentDataset(census, SensitiveFamily::kOccupation, 0)
                   .ok());
  EXPECT_FALSE(MakeExperimentDataset(census, SensitiveFamily::kOccupation, 8)
                   .ok());
}

TEST(DatasetTest, ProjectionPreservesRowAlignment) {
  const Table census = GenerateCensus(500, 6);
  auto occ = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5);
  ASSERT_TRUE(occ.ok());
  const Microdata& md = occ.value().microdata;
  for (RowId r = 0; r < 100; ++r) {
    EXPECT_EQ(md.qi_value(r, 0), census.at(r, kAge));
    EXPECT_EQ(md.sensitive_value(r), census.at(r, kOccupation));
  }
}

TEST(DatasetTest, SampleDataset) {
  const Table census = GenerateCensus(2000, 5);
  auto occ = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(occ.ok());
  Rng rng(9);
  auto sampled = SampleDataset(occ.value(), 500, rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled.value().microdata.n(), 500u);
  EXPECT_EQ(sampled.value().microdata.d(), 4u);
  EXPECT_EQ(sampled.value().name, "OCC-4");
  EXPECT_FALSE(SampleDataset(occ.value(), 5000, rng).ok());
}

}  // namespace
}  // namespace anatomy
