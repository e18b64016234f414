#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/printer.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace anatomy {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad l");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad l");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad l");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kUnavailable,
        StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
}

TEST(StatusTest, FaultCodeFactories) {
  Status unavailable = Status::Unavailable("disk offline");
  EXPECT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: disk offline");

  Status data_loss = Status::DataLoss("checksum mismatch");
  EXPECT_FALSE(data_loss.ok());
  EXPECT_EQ(data_loss.code(), StatusCode::kDataLoss);
  EXPECT_EQ(data_loss.ToString(), "DataLoss: checksum mismatch");
}

TEST(StatusTest, OnlyUnavailableIsTransient) {
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_TRUE(IsTransient(StatusCode::kUnavailable));
  // kDataLoss is permanent: re-reading corrupt bits cannot help.
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kDataLoss}) {
    EXPECT_FALSE(IsTransient(code)) << StatusCodeName(code);
  }
  EXPECT_FALSE(Status::DataLoss("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

Status UseParse(int v, int* out) {
  ANATOMY_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  StatusOr<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseParse(-7, &out).ok());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(99);
  const int kBuckets = 8;
  const int kDraws = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(8);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(77);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextDiscrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(31);
  double sum = 0;
  double sum_sq = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(RngTest, ZipfRangeAndSkew) {
  Rng rng(13);
  const uint64_t n = 100;
  int head = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.NextZipf(n, 0.9);
    EXPECT_LT(v, n);
    head += (v < 10);
  }
  // With theta = 0.9 the first 10 ranks carry far more than 10% of the mass.
  EXPECT_GT(head, 20000 * 0.3);
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Rng rng(14);
  int head = 0;
  for (int i = 0; i < 20000; ++i) head += (rng.NextZipf(100, 0.0) < 10);
  EXPECT_NEAR(head, 2000, 300);
}

TEST(RngTest, ZipfMatchesPmf) {
  // Each of the first 20 ranks lands within 5 sigma of its share of the
  // draws, k^-theta / sum_j j^-theta. (82, 0.55) is the census generator's
  // country tail.
  constexpr int kDraws = 200000;
  constexpr int kRanks = 20;
  const std::pair<uint64_t, double> cases[] = {
      {82, 0.55}, {100, 0.9}, {1000, 1.0}, {1000000, 0.8}};
  for (const auto& [n, theta] : cases) {
    double norm = 0;
    for (uint64_t j = 1; j <= n; ++j) {
      norm += std::pow(static_cast<double>(j), -theta);
    }
    Rng rng(n);
    std::vector<int> counts(kRanks, 0);
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t v = rng.NextZipf(n, theta);
      ASSERT_LT(v, n);
      if (v < kRanks) ++counts[v];
    }
    for (int k = 0; k < kRanks; ++k) {
      const double p = std::pow(k + 1.0, -theta) / norm;
      const double sigma = std::sqrt(kDraws * p * (1 - p));
      EXPECT_NEAR(counts[k], kDraws * p, 5 * sigma)
          << "n = " << n << ", theta = " << theta << ", rank " << k + 1;
    }
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(21);
  for (uint32_t n : {10u, 100u, 1000u}) {
    for (uint32_t k : {0u, 1u, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      ASSERT_EQ(sample.size(), k);
      std::set<uint32_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (uint32_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementUnbiased) {
  Rng rng(22);
  // Small-k path (Floyd): every element should be chosen ~equally often.
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 20000; ++trial) {
    for (uint32_t v : rng.SampleWithoutReplacement(20, 3)) ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 3000, 350);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(GeometricWeightsTest, ShapeAndUniformLimit) {
  auto w = GeometricWeights(4, 0.5);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[3], 0.125);
  auto u = GeometricWeights(3, 1.0);
  EXPECT_DOUBLE_EQ(u[0], u[2]);
}

// ----------------------------------------------------------------- Flags --

TEST(FlagsTest, ParsesAllTypes) {
  int64_t n = 10;
  double s = 0.05;
  bool paper = false;
  std::string name = "occ";
  FlagParser parser;
  parser.AddInt64("n", &n, "cardinality");
  parser.AddDouble("s", &s, "selectivity");
  parser.AddBool("paper", &paper, "full scale");
  parser.AddString("name", &name, "dataset");

  const char* argv[] = {"prog", "--n=500", "--s", "0.1", "--paper",
                        "--name=sal"};
  ASSERT_TRUE(parser.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 500);
  EXPECT_DOUBLE_EQ(s, 0.1);
  EXPECT_TRUE(paper);
  EXPECT_EQ(name, "sal");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagParser parser;
  const char* argv[] = {"prog", "--mystery=1"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsBadValues) {
  int64_t n = 0;
  FlagParser parser;
  parser.AddInt64("n", &n, "x");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, HelpRequested) {
  FlagParser parser;
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(parser.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(parser.help_requested());
  EXPECT_NE(parser.Usage("prog").find("usage:"), std::string::npos);
}

TEST(FlagsTest, BoolExplicitFalse) {
  bool b = true;
  FlagParser parser;
  parser.AddBool("b", &b, "x");
  const char* argv[] = {"prog", "--b=false"};
  ASSERT_TRUE(parser.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(b);
}

// --------------------------------------------------------------- Printer --

TEST(PrinterTest, AlignsColumns) {
  TablePrinter printer({"d", "generalization", "anatomy"});
  printer.AddRow({"3", "52.10", "4.20"});
  printer.AddNumericRow("7", {1234.5, 6.7}, 2);
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("d  generalization"), std::string::npos);
  EXPECT_NE(out.find("1234.50"), std::string::npos);
  // Header, rule, two data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(PrinterTest, ToCsvQuotesSpecialCells) {
  TablePrinter printer({"name", "value"});
  printer.AddRow({"plain", "1.5"});
  printer.AddRow({"with, comma", "say \"hi\""});
  const std::string csv = printer.ToCsv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with, comma\",\"say \"\"hi\"\"\"\n"),
            std::string::npos);
}

TEST(PrinterTest, Formatters) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatCount(300000), "300k");
  EXPECT_EQ(FormatCount(2000000), "2M");
  EXPECT_EQ(FormatCount(123), "123");
  EXPECT_EQ(FormatPercent(0.05), "5%");
  EXPECT_EQ(FormatPercent(0.123, 1), "12.3%");
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimAndJoinAndCase) {
  EXPECT_EQ(Trim("  x y \t"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(StartsWith("anatomy", "ana"));
  EXPECT_FALSE(StartsWith("an", "ana"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

// The strict integer parser shared by the flag parser, anatomy_cli, and
// anatomy_serve. Every rejection here was a silent acceptance under the
// old raw-strtol paths.

TEST(StringUtilTest, ParseInt64AcceptsWholeIntegers) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("+13").value(), 13);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").value(), INT64_MIN);
}

TEST(StringUtilTest, ParseInt64RejectsTrailingGarbage) {
  // strtol would happily return 4 for all of these.
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("4 ").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("4e3").ok());
}

TEST(StringUtilTest, ParseInt64RejectsEmptyAndNonNumeric) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64(" ").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("-").ok());
  EXPECT_FALSE(ParseInt64("+").ok());
}

TEST(StringUtilTest, ParseInt64RejectsOverflowInsteadOfSaturating) {
  // strtol clamps these to INT64_MAX/MIN with errno=ERANGE; the strict
  // parser must surface the error, not the clamp.
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999").ok());
}

TEST(StringUtilTest, ParseInt64InRangeEnforcesInclusiveBounds) {
  EXPECT_EQ(ParseInt64InRange("2", 2, 1000, "--l").value(), 2);
  EXPECT_EQ(ParseInt64InRange("1000", 2, 1000, "--l").value(), 1000);
  const auto low = ParseInt64InRange("1", 2, 1000, "--l");
  ASSERT_FALSE(low.ok());
  // The error names the value and echoes the bounds.
  EXPECT_NE(low.status().message().find("--l"), std::string::npos);
  EXPECT_NE(low.status().message().find("2"), std::string::npos);
  EXPECT_NE(low.status().message().find("1000"), std::string::npos);
  EXPECT_FALSE(ParseInt64InRange("1001", 2, 1000, "--l").ok());
  EXPECT_FALSE(ParseInt64InRange("2x", 2, 1000, "--l").ok());
}

TEST(FlagsTest, Int64FlagEnforcesDeclaredRange) {
  int64_t l = 4;
  FlagParser parser;
  parser.AddInt64("l", &l, "l-diversity parameter", 2, 1000);
  {
    const char* argv[] = {"prog", "--l=1"};
    EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--l=1001"};
    EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--l=8"};
    ASSERT_TRUE(parser.Parse(2, const_cast<char**>(argv)).ok());
    EXPECT_EQ(l, 8);
  }
}

TEST(FlagsTest, Int64FlagRejectsStrtolArtifacts) {
  int64_t n = 0;
  FlagParser parser;
  parser.AddInt64("n", &n, "rows");
  {
    const char* argv[] = {"prog", "--n=100x"};
    EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--n=99999999999999999999"};
    EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
  }
  EXPECT_EQ(n, 0);  // failed parses must not partially assign
}

}  // namespace
}  // namespace anatomy
