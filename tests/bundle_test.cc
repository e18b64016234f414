// Schema serialization, publication bundles, and the query parser.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "anatomy/anatomizer.h"
#include "anatomy/bundle.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "query/parser.h"
#include "table/schema_io.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;

namespace fs = std::filesystem;

// -------------------------------------------------------------- schema IO --

TEST(SchemaIoTest, RoundTripAllKinds) {
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Age", 78, 15, 1));
  defs.push_back(MakeNumerical("Zip", 100, 0, 1000));
  defs.push_back(MakeLabeled("Sex", {"F", "M"}));
  defs.push_back(MakeCategorical("Country", 83));
  defs.push_back(MakeLabeled("Odd", {"a,b", "c\\d", "plain"}));  // escaping
  const Schema schema(std::move(defs));

  const std::string text = SerializeSchema(schema);
  auto parsed = ParseSchema(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Schema& round = *parsed.value();
  ASSERT_EQ(round.num_attributes(), schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const AttributeDef& a = schema.attribute(i);
    const AttributeDef& b = round.attribute(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.domain_size, b.domain_size);
    EXPECT_EQ(a.numeric_base, b.numeric_base);
    EXPECT_EQ(a.numeric_step, b.numeric_step);
    EXPECT_EQ(a.labels, b.labels);
  }
}

TEST(SchemaIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseSchema("").ok());
  EXPECT_FALSE(ParseSchema("OnlyName|categorical").ok());
  EXPECT_FALSE(ParseSchema("A|mystery|5").ok());
  EXPECT_FALSE(ParseSchema("A|numerical|5|0").ok());        // missing step
  EXPECT_FALSE(ParseSchema("A|numerical|5|0|0").ok());      // zero step
  EXPECT_FALSE(ParseSchema("A|categorical|0").ok());        // empty domain
  EXPECT_FALSE(ParseSchema("A|categorical|3|x,y").ok());    // label count
  EXPECT_FALSE(ParseSchema("|categorical|3").ok());         // empty name
  EXPECT_FALSE(ParseSchema("A|categorical|abc").ok());      // bad number
  EXPECT_FALSE(ParseSchema("A|categorical|4x").ok());       // trailing garbage
  EXPECT_FALSE(ParseSchema("A|categorical|-3").ok());       // negative domain
  EXPECT_FALSE(ParseSchema("A|categorical|4294967300").ok());  // > 2^30
  EXPECT_FALSE(ParseSchema("A|numerical|5|99999999999999999999|1").ok());
  EXPECT_FALSE(ParseSchema("A|numerical|5|0|1x").ok());
  // Values base + code * step must stay int64.
  EXPECT_FALSE(ParseSchema("A|numerical|3|9223372036854775807|1").ok());
  EXPECT_FALSE(
      ParseSchema("A|numerical|3|0|-9223372036854775807").ok());
  EXPECT_TRUE(ParseSchema("A|numerical|1|9223372036854775807|1").ok());
  EXPECT_TRUE(ParseSchema("A|numerical|3|-1000|37").ok());
}

TEST(SchemaIoTest, IgnoresCommentsAndBlanks) {
  auto parsed = ParseSchema("# header\n\nA|categorical|4\n  \nB|numerical|2|0|1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->num_attributes(), 2u);
}

// --------------------------------------------------------------- manifest --

TEST(ManifestTest, RoundTripAndValidation) {
  PublicationManifest manifest;
  manifest.l = 10;
  manifest.rows = 12345;
  manifest.groups = 1234;
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().l, 10);
  EXPECT_EQ(parsed.value().rows, 12345u);
  EXPECT_EQ(parsed.value().groups, 1234u);

  EXPECT_FALSE(ParseManifest("l=10\n").ok());               // no version
  EXPECT_FALSE(ParseManifest("format_version=2\nl=10\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=1\nl=0\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=1\nl=ten\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=1\nl=2\nbogus=1\n").ok());
}

TEST(ManifestTest, RejectsOverflowNegativeAndTrailingGarbage) {
  const std::string v1 = "format_version=1\n";
  // 2^32 + 2 used to narrow to l=2; 2^32 rows to 0 rows.
  EXPECT_FALSE(ParseManifest(v1 + "l=4294967298\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\nrows=4294967296\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\ngroups=4294967296\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=4294967297\nl=10\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=99999999999999999999\n").ok());
  // Negative values.
  EXPECT_FALSE(ParseManifest(v1 + "l=-3\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\nrows=-1\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\ngroups=-1\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=-1\nl=10\n").ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseManifest(v1 + "l=10x\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\nrows=12 34\n").ok());
  EXPECT_FALSE(ParseManifest(v1 + "l=10\ngroups=7.5\n").ok());
  EXPECT_FALSE(ParseManifest("format_version=1x\nl=10\n").ok());
  // The largest values each field holds still load.
  auto max = ParseManifest(v1 + "l=2147483647\nrows=4294967295\n"
                                "groups=4294967295\n");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max.value().l, 2147483647);
  EXPECT_EQ(max.value().rows, 4294967295u);
  EXPECT_EQ(max.value().groups, 4294967295u);
}

// ----------------------------------------------------------------- bundle --

class BundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "anatomy_bundle_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BundleTest, WriteReadRoundTrip) {
  const Table census = GenerateCensus(3000, 77);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 3);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 5});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());

  ASSERT_TRUE(WritePublicationBundle(tables.value(), 10, dir_.string()).ok());
  for (const char* file : {"qit_schema.txt", "st_schema.txt", "qit.csv",
                           "st.csv", "manifest.txt"}) {
    EXPECT_TRUE(fs::exists(dir_ / file)) << file;
  }

  auto loaded = ReadPublicationBundle(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest.l, 10);
  EXPECT_EQ(loaded.value().tables.num_rows(), md.n());
  EXPECT_EQ(loaded.value().tables.num_groups(), tables.value().num_groups());

  // The analyst-side estimator over the loaded bundle matches the
  // publisher-side one exactly.
  AnatomyEstimator original(tables.value());
  AnatomyEstimator reloaded(loaded.value().tables);
  CountQuery query;
  query.qi_predicates.push_back(testing_util::RangePredicate(0, 5, 40));
  query.sensitive_predicate = AttributePredicate(0, {1, 2, 3});
  EXPECT_DOUBLE_EQ(original.Estimate(query), reloaded.Estimate(query));
}

TEST_F(BundleTest, RefusesToWriteOverclaimedDiversity) {
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});  // 2-diverse only
  auto tables = AnatomizedTables::Build(md, p);
  ASSERT_TRUE(tables.ok());
  EXPECT_FALSE(WritePublicationBundle(tables.value(), 3, dir_.string()).ok());
  EXPECT_TRUE(WritePublicationBundle(tables.value(), 2, dir_.string()).ok());
}

TEST_F(BundleTest, DetectsTampering) {
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto tables = AnatomizedTables::Build(md, p);
  ASSERT_TRUE(tables.ok());
  ASSERT_TRUE(WritePublicationBundle(tables.value(), 2, dir_.string()).ok());

  // Claiming stronger diversity in the manifest is caught at load time.
  {
    std::ofstream os(dir_ / "manifest.txt");
    os << "format_version=1\nl=4\nrows=8\ngroups=2\n";
  }
  EXPECT_FALSE(ReadPublicationBundle(dir_.string()).ok());

  // Wrong row count is caught.
  {
    std::ofstream os(dir_ / "manifest.txt");
    os << "format_version=1\nl=2\nrows=9\ngroups=2\n";
  }
  EXPECT_FALSE(ReadPublicationBundle(dir_.string()).ok());

  // Missing files are caught.
  {
    std::ofstream os(dir_ / "manifest.txt");
    os << "format_version=1\nl=2\nrows=8\ngroups=2\n";
  }
  fs::remove(dir_ / "st.csv");
  EXPECT_FALSE(ReadPublicationBundle(dir_.string()).ok());
}

// ----------------------------------------------------------------- parser --

class ParserTest : public ::testing::Test {
 protected:
  ParserTest()
      : md_(HospitalExample()),
        schema_(QuerySchema::FromMicrodata(md_)),
        exact_(md_) {}

  uint64_t Run(const std::string& text) {
    auto query = ParseCountQuery(text, schema_);
    ANATOMY_CHECK_OK(query.status());
    return exact_.Count(query.value());
  }

  Microdata md_;
  QuerySchema schema_;
  ExactEvaluator exact_;
};

TEST_F(ParserTest, PaperQueryA) {
  // COUNT WHERE Disease = pneumonia AND Age <= 30 AND Zip in [10001, 20000].
  EXPECT_EQ(Run("COUNT WHERE Age BETWEEN 0 AND 30 AND "
                "Zipcode BETWEEN 10001 AND 20000 AND Disease = pneumonia"),
            1u);
}

TEST_F(ParserTest, InListsWithLabelsAndCodes) {
  EXPECT_EQ(Run("COUNT WHERE Disease IN (flu, gastritis)"), 3u);
  EXPECT_EQ(Run("COUNT WHERE Disease IN (2, 3)"), 3u);  // same by code
  EXPECT_EQ(Run("count where Sex = F and Disease in (flu)"), 2u);
}

TEST_F(ParserTest, NoWhereCountsEverything) {
  EXPECT_EQ(Run("COUNT"), 8u);
}

TEST_F(ParserTest, MissingSensitiveMeansAllValues) {
  EXPECT_EQ(Run("COUNT WHERE Sex = M"), 4u);
  EXPECT_EQ(Run("COUNT WHERE Age BETWEEN 60 AND 99"), 4u);
}

TEST_F(ParserTest, NumericBetweenUsesRealValues) {
  // Zipcode codes are value/1000; BETWEEN is on real zips
  // (tuples 1, 2, 4 have zips 11000, 13000, 12000).
  EXPECT_EQ(Run("COUNT WHERE Zipcode BETWEEN 11000 AND 13000"), 3u);
  EXPECT_EQ(Run("COUNT WHERE Zipcode BETWEEN 11000 AND 11999"), 1u);
}

TEST_F(ParserTest, RejectsMalformedQueries) {
  auto expect_bad = [&](const std::string& text) {
    EXPECT_FALSE(ParseCountQuery(text, schema_).ok()) << text;
  };
  expect_bad("SELECT COUNT(*)");
  expect_bad("COUNT WHERE");
  expect_bad("COUNT WHERE Age");
  expect_bad("COUNT WHERE Age = ");
  expect_bad("COUNT WHERE Height = 5");            // unknown attribute
  expect_bad("COUNT WHERE Age = 5 Age = 6");       // missing AND
  expect_bad("COUNT WHERE Age = 5 AND Age = 6");   // duplicate attribute
  expect_bad("COUNT WHERE Disease = flu AND Disease = flu");
  expect_bad("COUNT WHERE Disease = cancer");      // unknown label
  expect_bad("COUNT WHERE Age IN (1, 2");          // unclosed list
  expect_bad("COUNT WHERE Age BETWEEN 5 AND");     // missing bound
  expect_bad("COUNT WHERE Age BETWEEN 90 AND 10"); // empty range
  expect_bad("COUNT WHERE Age = 200");             // out of domain
  expect_bad("COUNT trailing");

  // int64-extreme values on extreme grids (see CsvTest.RejectsOutOfDomain).
  QuerySchema extreme;
  extreme.qi_attributes = {MakeNumerical("x", 1, /*base=*/0, /*step=*/-1),
                           MakeNumerical("y", 1, /*base=*/5000000000000000000)};
  extreme.sensitive_attribute = MakeCategorical("s", 2);
  for (const char* text : {"COUNT WHERE x = -9223372036854775808",
                           "COUNT WHERE y = -9000000000000000000"}) {
    EXPECT_EQ(ParseCountQuery(text, extreme).status().code(),
              StatusCode::kOutOfRange)
        << text;
  }
}

TEST_F(ParserTest, FromPublicationSchemaWorks) {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto tables = AnatomizedTables::Build(md_, p);
  ASSERT_TRUE(tables.ok());
  const QuerySchema pub_schema = QuerySchema::FromPublication(tables.value());
  auto query = ParseCountQuery(
      "COUNT WHERE Age BETWEEN 0 AND 30 AND Zipcode BETWEEN 10001 AND 20000 "
      "AND Disease = pneumonia",
      pub_schema);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  AnatomyEstimator estimator(tables.value());
  EXPECT_DOUBLE_EQ(estimator.Estimate(query.value()), 1.0);
}

}  // namespace
}  // namespace anatomy
