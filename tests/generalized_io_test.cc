#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/generalized_io.h"
#include "generalization/mondrian.h"
#include "query/exact_evaluator.h"
#include "query/generalization_estimator.h"
#include "query/parser.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;

Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

TEST(GeneralizedIoTest, WritesPaperStyleRows) {
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  std::ostringstream os;
  ASSERT_TRUE(WriteGeneralizedCsv(table.value(), md, os).ok());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("Age,Sex,Zipcode,Disease"), std::string::npos);
  // Group 1's cell: ages 23..59, all male, zips 11000..59000 — like Table 2.
  EXPECT_NE(csv.find("23..59,M,11000..59000,pneumonia"), std::string::npos);
  EXPECT_NE(csv.find("61..70,F,25000..54000,bronchitis"), std::string::npos);
}

TEST(GeneralizedIoTest, RoundTripReconstructsGroups) {
  const Microdata md = HospitalExample();
  auto table = GeneralizedTable::Build(md, PaperPartition(),
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  std::ostringstream os;
  ASSERT_TRUE(WriteGeneralizedCsv(table.value(), md, os).ok());

  const QuerySchema schema = QuerySchema::FromMicrodata(md);
  std::istringstream is(os.str());
  auto loaded = ReadGeneralizedCsv(schema.qi_attributes,
                                   schema.sensitive_attribute, is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GeneralizedTable& round = loaded.value().table;
  ASSERT_EQ(round.num_groups(), 2u);
  ASSERT_EQ(round.num_rows(), 8u);
  for (GroupId g = 0; g < 2; ++g) {
    EXPECT_EQ(round.group(g).size, 4u);
  }
  // Histograms survive the trip (order of groups may differ; match by size
  // of histogram: group 1 has 2 diseases, group 2 has 3).
  std::multiset<size_t> hist_sizes;
  for (GroupId g = 0; g < 2; ++g) {
    hist_sizes.insert(round.group(g).histogram.size());
  }
  EXPECT_EQ(hist_sizes, (std::multiset<size_t>{2, 3}));
}

TEST(GeneralizedIoTest, AnalystEstimatesMatchPublisher) {
  // Full loop on CENSUS data: publish Mondrian output as CSV, reload, and
  // check the estimator computes identical answers from the file.
  const Table census = GenerateCensus(5000, 29);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Mondrian mondrian(MondrianOptions{10});
  auto partition = mondrian.ComputePartition(md, dataset.value().taxonomies);
  ASSERT_TRUE(partition.ok());
  auto table =
      GeneralizedTable::Build(md, partition.value(), dataset.value().taxonomies);
  ASSERT_TRUE(table.ok());

  std::ostringstream os;
  ASSERT_TRUE(WriteGeneralizedCsv(table.value(), md, os).ok());
  const QuerySchema schema = QuerySchema::FromMicrodata(md);
  std::istringstream is(os.str());
  auto loaded = ReadGeneralizedCsv(schema.qi_attributes,
                                   schema.sensitive_attribute, is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  GeneralizationEstimator publisher(table.value());
  GeneralizationEstimator analyst(loaded.value().table);
  WorkloadOptions options;
  options.qd = 3;
  options.s = 0.08;
  options.seed = 12;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  for (int i = 0; i < 40; ++i) {
    const CountQuery query = generator.value().Next();
    EXPECT_NEAR(publisher.Estimate(query), analyst.Estimate(query), 1e-9);
  }
}

TEST(GeneralizedIoTest, RejectsMalformedFiles) {
  const QuerySchema schema = QuerySchema::FromMicrodata(HospitalExample());
  auto parse = [&](const std::string& text) {
    std::istringstream is(text);
    return ReadGeneralizedCsv(schema.qi_attributes, schema.sensitive_attribute,
                              is)
        .status();
  };
  EXPECT_FALSE(parse("Age,Sex,Zipcode,Disease\n").ok());        // no rows
  EXPECT_FALSE(parse("h\n23,M,11000\n").ok());                  // arity
  EXPECT_FALSE(parse("h\n23,M,11000,cancer\n").ok());           // bad label
  EXPECT_FALSE(parse("h\n59..23,M,11000,flu\n").ok());          // inverted
  EXPECT_FALSE(parse("h\n23,X,11000,flu\n").ok());              // bad value
  EXPECT_FALSE(parse("h\n23,M,11500,flu\n").ok());              // off grid
  EXPECT_TRUE(parse("h\n23..25,M,11000,flu\n").ok());

  // int64-extreme boundaries on extreme grids (see
  // CsvTest.RejectsOutOfDomain).
  const std::vector<AttributeDef> extreme = {
      MakeNumerical("x", 1, /*base=*/0, /*step=*/-1),
      MakeNumerical("y", 1, /*base=*/5000000000000000000)};
  for (const char* text : {"h\n-9223372036854775808,5000000000000000000,0\n",
                           "h\n0,-9000000000000000000,0\n"}) {
    std::istringstream is(text);
    EXPECT_EQ(ReadGeneralizedCsv(extreme, MakeCategorical("s", 2), is)
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << text;
  }
}

TEST(FromPublishedRowsTest, Validation) {
  EXPECT_FALSE(GeneralizedTable::FromPublishedRows({}, {}).ok());
  EXPECT_FALSE(
      GeneralizedTable::FromPublishedRows({{{0, 1}}}, {0, 1}).ok());  // counts
  EXPECT_FALSE(
      GeneralizedTable::FromPublishedRows({{{0, 1}}, {{0, 1}, {2, 3}}}, {0, 1})
          .ok());  // arity
  EXPECT_FALSE(
      GeneralizedTable::FromPublishedRows({{CodeInterval{}}}, {0}).ok());
  auto ok = GeneralizedTable::FromPublishedRows(
      {{{0, 3}}, {{0, 3}}, {{4, 5}}}, {7, 8, 7});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().num_groups(), 2u);
  EXPECT_EQ(ok.value().group(ok.value().group_of_row(0)).size, 2u);
}

}  // namespace
}  // namespace anatomy
