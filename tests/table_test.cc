#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "table/csv.h"
#include "table/schema.h"
#include "table/stats.h"
#include "table/table.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakeSimpleMicrodata;

SchemaPtr SmallSchema() {
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Age", 100));
  defs.push_back(MakeLabeled("Sex", {"F", "M"}));
  defs.push_back(MakeNumerical("Zipcode", 100, /*base=*/0, /*step=*/1000));
  return std::make_shared<Schema>(std::move(defs));
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AttributeLookupAndProjection) {
  SchemaPtr schema = SmallSchema();
  EXPECT_EQ(schema->num_attributes(), 3u);
  auto idx = schema->FindAttribute("Sex");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(schema->FindAttribute("Disease").ok());

  Schema projected = schema->Project({2, 0});
  EXPECT_EQ(projected.num_attributes(), 2u);
  EXPECT_EQ(projected.attribute(0).name, "Zipcode");
}

TEST(SchemaTest, FormatCode) {
  SchemaPtr schema = SmallSchema();
  EXPECT_EQ(schema->attribute(0).FormatCode(23), "23");
  EXPECT_EQ(schema->attribute(1).FormatCode(1), "M");
  EXPECT_EQ(schema->attribute(2).FormatCode(11), "11000");
}

TEST(SchemaTest, CodeInDomain) {
  SchemaPtr schema = SmallSchema();
  EXPECT_TRUE(schema->CodeInDomain(1, 0));
  EXPECT_TRUE(schema->CodeInDomain(1, 1));
  EXPECT_FALSE(schema->CodeInDomain(1, 2));
  EXPECT_FALSE(schema->CodeInDomain(1, -1));
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendAndAccess) {
  Table table(SmallSchema());
  const Code row[3] = {23, 1, 11};
  table.AppendRow(row);
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.at(0, 0), 23);
  EXPECT_EQ(table.at(0, 2), 11);

  std::vector<Code> copy;
  table.GetRow(0, copy);
  EXPECT_EQ(copy, (std::vector<Code>{23, 1, 11}));
}

TEST(TableTest, SelectRowsAndProjectColumns) {
  Table table(SmallSchema());
  for (Code i = 0; i < 10; ++i) {
    const Code row[3] = {i, static_cast<Code>(i % 2), static_cast<Code>(i * 3)};
    table.AppendRow(row);
  }
  const RowId picks[] = {7, 2, 2};
  Table selected = table.SelectRows(picks);
  ASSERT_EQ(selected.num_rows(), 3u);
  EXPECT_EQ(selected.at(0, 0), 7);
  EXPECT_EQ(selected.at(1, 0), 2);
  EXPECT_EQ(selected.at(2, 0), 2);

  Table projected = table.ProjectColumns({2, 1});
  EXPECT_EQ(projected.num_columns(), 2u);
  EXPECT_EQ(projected.schema().attribute(0).name, "Zipcode");
  EXPECT_EQ(projected.at(4, 0), 12);
}

TEST(TableTest, SampleRows) {
  Table table(SmallSchema());
  for (Code i = 0; i < 50; ++i) {
    const Code row[3] = {i, 0, i};
    table.AppendRow(row);
  }
  Rng rng(9);
  auto sample = table.SampleRows(20, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample.value().num_rows(), 20u);
  EXPECT_FALSE(table.SampleRows(51, rng).ok());
}

TEST(TableTest, DisplayString) {
  Table table(SmallSchema());
  const Code row[3] = {23, 1, 11};
  table.AppendRow(row);
  const std::string s = table.ToDisplayString();
  EXPECT_NE(s.find("Age  Sex  Zipcode"), std::string::npos);
  EXPECT_NE(s.find("23  M  11000"), std::string::npos);
}

// ------------------------------------------------------------- Microdata --

TEST(MicrodataTest, ValidateAcceptsGood) {
  Microdata md = MakeSimpleMicrodata({{1, 2}, {3, 4}});
  EXPECT_TRUE(md.Validate().ok());
  EXPECT_EQ(md.d(), 1u);
  EXPECT_EQ(md.n(), 2u);
  EXPECT_EQ(md.qi_value(1, 0), 3);
  EXPECT_EQ(md.sensitive_value(1), 4);
}

TEST(MicrodataTest, ValidateRejectsOverlapAndRange) {
  Microdata md = MakeSimpleMicrodata({{1, 2}});
  md.sensitive_column = 0;  // overlaps the QI column
  EXPECT_FALSE(md.Validate().ok());

  md = MakeSimpleMicrodata({{1, 2}});
  md.qi_columns = {0, 0};
  EXPECT_FALSE(md.Validate().ok());

  md = MakeSimpleMicrodata({{1, 2}});
  md.sensitive_column = 9;
  EXPECT_FALSE(md.Validate().ok());

  md = MakeSimpleMicrodata({{1, 2}});
  md.qi_columns = {};
  EXPECT_FALSE(md.Validate().ok());
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, RoundTripWithLabelsAndNumbers) {
  Table table(SmallSchema());
  const Code rows[2][3] = {{23, 1, 11}, {61, 0, 54}};
  table.AppendRow(rows[0]);
  table.AppendRow(rows[1]);

  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(table, os).ok());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("Age,Sex,Zipcode"), std::string::npos);
  EXPECT_NE(csv.find("23,M,11000"), std::string::npos);

  std::istringstream is(csv);
  auto parsed = ReadCsv(table.schema_ptr(), is);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().num_rows(), 2u);
  EXPECT_EQ(parsed.value().at(0, 1), 1);
  EXPECT_EQ(parsed.value().at(1, 2), 54);
}

TEST(CsvTest, RejectsWrongFieldCount) {
  std::istringstream is("Age,Sex,Zipcode\n23,M\n");
  EXPECT_FALSE(ReadCsv(SmallSchema(), is).ok());
}

TEST(CsvTest, RejectsUnknownLabel) {
  std::istringstream is("Age,Sex,Zipcode\n23,X,11000\n");
  EXPECT_FALSE(ReadCsv(SmallSchema(), is).ok());
}

TEST(CsvTest, RejectsOffGridNumeric) {
  // Zipcode 11500 is not a multiple of the 1000 step.
  std::istringstream is("Age,Sex,Zipcode\n23,M,11500\n");
  EXPECT_FALSE(ReadCsv(SmallSchema(), is).ok());
}

TEST(CsvTest, RejectsOutOfDomain) {
  std::istringstream is("Age,Sex,Zipcode\n230,M,11000\n");
  EXPECT_FALSE(ReadCsv(SmallSchema(), is).ok());

  // int64-extreme values on extreme grids: with step -1, INT64_MIN's code
  // would be INT64_MIN / -1 (a trap in 64 bits); with base 5e18, -9e18's
  // offset leaves the int64 range. Both are plain out-of-domain values.
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("x", 1, /*base=*/0, /*step=*/-1));
  defs.push_back(MakeNumerical("y", 1, /*base=*/5000000000000000000));
  const SchemaPtr extreme = std::make_shared<Schema>(std::move(defs));
  for (const char* text : {"x,y\n-9223372036854775808,5000000000000000000\n",
                           "x,y\n0,-9000000000000000000\n"}) {
    std::istringstream in(text);
    EXPECT_EQ(ReadCsv(extreme, in).status().code(), StatusCode::kOutOfRange)
        << text;
  }
}

TEST(CsvTest, SkipsBlankLinesAndSupportsNoHeader) {
  std::istringstream is("23,M,11000\n\n61,F,54000\n");
  CsvOptions options;
  options.header = false;
  auto parsed = ReadCsv(SmallSchema(), is, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_rows(), 2u);
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, HistogramAndMaxFrequency) {
  Microdata md = MakeSimpleMicrodata({{0, 1}, {0, 1}, {1, 1}, {2, 3}});
  auto hist = ColumnHistogram(md.table, 0);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(MaxFrequency(md.table, 1), 3u);
  EXPECT_EQ(DistinctCount(md.table, 0), 3u);
  EXPECT_EQ(DistinctCount(md.table, 1), 2u);
}

TEST(StatsTest, EntropyOfUniformAndConstant) {
  Microdata uniform = MakeSimpleMicrodata({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  EXPECT_NEAR(ColumnEntropy(uniform.table, 0), 2.0, 1e-9);
  EXPECT_NEAR(ColumnEntropy(uniform.table, 1), 0.0, 1e-9);
}

TEST(StatsTest, MutualInformationExtremes) {
  // Perfectly dependent: S = X (over 4 symbols) -> MI = H = 2 bits.
  Microdata dependent =
      MakeSimpleMicrodata({{0, 0}, {1, 1}, {2, 2}, {3, 3}}, 4, 4);
  EXPECT_NEAR(MutualInformation(dependent.table, 0, 1), 2.0, 1e-9);

  // Independent: every (x, s) combination equally often -> MI = 0.
  std::vector<std::pair<Code, Code>> rows;
  for (Code x = 0; x < 4; ++x) {
    for (Code s = 0; s < 4; ++s) rows.push_back({x, s});
  }
  Microdata independent = MakeSimpleMicrodata(rows, 4, 4);
  EXPECT_NEAR(MutualInformation(independent.table, 0, 1), 0.0, 1e-9);
}

}  // namespace
}  // namespace anatomy
