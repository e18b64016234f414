#include <set>

#include <gtest/gtest.h>

#include "anatomy/eligibility.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/external_mondrian.h"
#include "generalization/generalized_table.h"
#include "generalization/info_loss.h"
#include "generalization/mondrian.h"
#include "test_util.h"
#include "storage/simulated_disk.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;
using testing_util::MakeRoundRobinMicrodata;
using testing_util::MakeSimpleMicrodata;

TaxonomySet FreeTaxonomies(const Microdata& md) {
  return TaxonomySet::AllFree(md.table.schema());
}

// -------------------------------------------------- ChooseCutForAttribute --

TEST(ChooseCutTest, PicksMedianAdmissibleCut) {
  // 8 tuples on values 0..3 (two per value), sensitive alternating over 4
  // codes: any cut is 2-diverse; the median cut (value 1|2) wins.
  const Taxonomy tax = Taxonomy::Free(4);
  const CodeInterval extent{0, 3};
  std::vector<uint32_t> counts = {2, 2, 2, 2};
  std::vector<uint32_t> joint(4 * 4, 0);
  for (int v = 0; v < 4; ++v) {
    joint[v * 4 + (v % 4)] = 1;
    joint[v * 4 + ((v + 1) % 4)] = 1;
  }
  auto cut = ChooseCutForAttribute(tax, extent, counts, joint, 4, 2, 8);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, 1);
}

TEST(ChooseCutTest, RejectsCutsBreakingDiversity) {
  // Left half would be pure value-0-sensitive: no 2-diverse cut exists.
  const Taxonomy tax = Taxonomy::Free(2);
  const CodeInterval extent{0, 1};
  std::vector<uint32_t> counts = {2, 2};
  std::vector<uint32_t> joint = {
      2, 0,  // value 0: both tuples sensitive 0
      0, 2,  // value 1: both tuples sensitive 1
  };
  EXPECT_FALSE(
      ChooseCutForAttribute(tax, extent, counts, joint, 2, 2, 4).has_value());
}

TEST(ChooseCutTest, RespectsMinimumGroupSize) {
  // Both halves must have >= l tuples.
  const Taxonomy tax = Taxonomy::Free(2);
  const CodeInterval extent{0, 1};
  std::vector<uint32_t> counts = {1, 9};
  std::vector<uint32_t> joint = {
      1, 0, 0, 0, 0,  //
      2, 2, 2, 2, 1,  //
  };
  EXPECT_FALSE(
      ChooseCutForAttribute(tax, extent, counts, joint, 5, 2, 10).has_value());
}

// --------------------------------------------------------------- Mondrian --

TEST(MondrianTest, FailsOnIneligibleInput) {
  std::vector<std::pair<Code, Code>> rows(50, {0, 0});
  Microdata md = MakeSimpleMicrodata(rows);
  Mondrian mondrian(MondrianOptions{.l = 2});
  EXPECT_EQ(mondrian.ComputePartition(md, FreeTaxonomies(md)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MondrianTest, UnsplittableDataIsOneGroup) {
  // All tuples share the same QI value: no attribute can split.
  std::vector<std::pair<Code, Code>> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({5, static_cast<Code>(i % 8)});
  Microdata md = MakeSimpleMicrodata(rows);
  Mondrian mondrian(MondrianOptions{.l = 4});
  auto p = mondrian.ComputePartition(md, FreeTaxonomies(md));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().num_groups(), 1u);
}

struct MondrianCase {
  int l;
  RowId n;
  uint64_t seed;
};

class MondrianPropertyTest : public ::testing::TestWithParam<MondrianCase> {};

TEST_P(MondrianPropertyTest, PartitionIsLDiverseAndFine) {
  const auto [l, n, seed] = GetParam();
  // Mildly correlated data: 30% of tuples take the deterministic value
  // x/4 mod 16, the rest are uniform. Splitting stays admissible near the
  // root (local max frequency ~ 0.3/8 + 0.7/16) but pins narrow nodes,
  // exercising both the recursion and its diversity-driven stopping rule.
  Rng rng(seed);
  std::vector<std::pair<Code, Code>> rows;
  for (RowId i = 0; i < n; ++i) {
    const Code x = static_cast<Code>(rng.NextBounded(64));
    const Code s = rng.NextBool(0.3)
                       ? static_cast<Code>((x / 4) % 16)
                       : static_cast<Code>(rng.NextBounded(16));
    rows.push_back({x, s});
  }
  Microdata md = MakeSimpleMicrodata(rows, 64, 16);
  if (!CheckEligibility(md, l).ok()) GTEST_SKIP();

  Mondrian mondrian(MondrianOptions{.l = l});
  auto result = mondrian.ComputePartition(md, FreeTaxonomies(md));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Partition& p = result.value();
  EXPECT_TRUE(p.ValidateCover(md.n()).ok());
  EXPECT_TRUE(p.ValidateLDiverse(md, l).ok());
  for (GroupId g = 0; g < p.num_groups(); ++g) {
    const std::span<const RowId> group = p.group(g);
    EXPECT_GE(group.size(), static_cast<size_t>(l));
  }
  // The recursion should split eligible data well past one group.
  EXPECT_GT(p.num_groups(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MondrianPropertyTest,
                         ::testing::Values(MondrianCase{2, 500, 1},
                                           MondrianCase{4, 1000, 2},
                                           MondrianCase{10, 5000, 3},
                                           MondrianCase{10, 4999, 4},
                                           MondrianCase{6, 2500, 5}));

TEST(MondrianTest, FreeRecodingCellsAreDisjoint) {
  // With free taxonomies Mondrian's cells partition the QI space: the
  // pre-snap extents of any two groups must be disjoint on some attribute.
  const Microdata md = MakeRoundRobinMicrodata(2000, 64, 16);
  Mondrian mondrian(MondrianOptions{.l = 8});
  auto result = mondrian.ComputePartition(md, FreeTaxonomies(md));
  ASSERT_TRUE(result.ok());
  auto table =
      GeneralizedTable::Build(md, result.value(), FreeTaxonomies(md));
  ASSERT_TRUE(table.ok());
  const auto& groups = table.value().groups();
  for (size_t a = 0; a < groups.size(); ++a) {
    for (size_t b = a + 1; b < groups.size(); ++b) {
      bool disjoint_somewhere = false;
      for (size_t i = 0; i < groups[a].extents.size(); ++i) {
        if (!groups[a].extents[i].Intersects(groups[b].extents[i])) {
          disjoint_somewhere = true;
          break;
        }
      }
      EXPECT_TRUE(disjoint_somewhere)
          << "groups " << a << " and " << b << " overlap";
    }
  }
}

TEST(MondrianTest, TaxonomyConstrainedEndpointsLieOnNodes) {
  // Generate CENSUS-like data, generalize Country (taxonomy height 3): every
  // published multi-value interval must be exactly a taxonomy node.
  const Table census = GenerateCensus(4000, 7);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 7);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  const TaxonomySet& taxonomies = dataset.value().taxonomies;

  Mondrian mondrian(MondrianOptions{.l = 5});
  auto partition = mondrian.ComputePartition(md, taxonomies);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  auto table = GeneralizedTable::Build(md, partition.value(), taxonomies);
  ASSERT_TRUE(table.ok());

  for (const GeneralizedGroup& group : table.value().groups()) {
    for (size_t i = 0; i < md.d(); ++i) {
      const Taxonomy& tax = taxonomies.at(md.qi_columns[i]);
      if (tax.is_free()) continue;
      const CodeInterval& e = group.extents[i];
      // A snapped interval is a fixed point of Snap.
      EXPECT_EQ(tax.Snap(e), e);
    }
  }
}

// ------------------------------------------------------- GeneralizedTable --

TEST(GeneralizedTableTest, PaperTableTwoShape) {
  const Microdata md = HospitalExample();
  Partition paper = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto table = GeneralizedTable::Build(md, paper,
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  const GeneralizedGroup& g1 = table.value().group(0);
  // Tuples 1-4: ages 23..59, all male, zip codes 11..59.
  EXPECT_EQ(g1.extents[0], (CodeInterval{23, 59}));
  EXPECT_EQ(g1.extents[1], (CodeInterval{1, 1}));
  EXPECT_EQ(g1.extents[2], (CodeInterval{11, 59}));
  EXPECT_EQ(g1.size, 4u);
  const std::string display = table.value().ToDisplayString(md);
  EXPECT_NE(display.find("[23, 59]"), std::string::npos);
  EXPECT_NE(display.find("[11000, 59000]"), std::string::npos);
}

TEST(GeneralizedTableTest, RequiresTaxonomyPerQi) {
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3, 4, 5, 6, 7}});
  TaxonomySet too_few;
  too_few.Add(Taxonomy::Free(100));
  EXPECT_FALSE(GeneralizedTable::Build(md, p, too_few).ok());
}

// -------------------------------------------------------------- InfoLoss --

TEST(InfoLossTest, GeneralizedRceFormula) {
  const Microdata md = HospitalExample();
  Partition paper = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto table = GeneralizedTable::Build(md, paper,
                                       TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  // V1 = 37 * 1 * 49, V2 = 10 * 1 * 30.
  const double v1 = 37.0 * 49.0;
  const double v2 = 10.0 * 30.0;
  const double expected = 4 * (1 - 1 / v1) + 4 * (1 - 1 / v2);
  EXPECT_NEAR(GeneralizedRce(table.value()), expected, 1e-9);

  EXPECT_DOUBLE_EQ(Discernibility(table.value()), 16.0 + 16.0);
  const double ncp = NormalizedCertaintyPenalty(table.value(), md);
  EXPECT_GT(ncp, 0.0);
  EXPECT_LT(ncp, 1.0);
}

TEST(InfoLossTest, SingletonGroupsHaveZeroLoss) {
  Microdata md = MakeSimpleMicrodata({{1, 2}, {5, 3}});
  Partition p = MakePartition({{0}, {1}});
  auto table =
      GeneralizedTable::Build(md, p, TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(GeneralizedRce(table.value()), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedCertaintyPenalty(table.value(), md), 0.0);
  EXPECT_DOUBLE_EQ(Discernibility(table.value()), 2.0);
}

// ------------------------------------------------------ ExternalMondrian --

TEST(ExternalMondrianTest, MatchesInMemoryGuarantees) {
  const Microdata md = MakeRoundRobinMicrodata(20000, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalMondrian mondrian(MondrianOptions{.l = 10});
  auto result =
      mondrian.Run(md, TaxonomySet::AllFree(md.table.schema()), &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().partition.ValidateCover(md.n()).ok());
  EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 10).ok());
  EXPECT_GT(result.value().output_pages, 0u);
  EXPECT_GT(result.value().io.total(), 0u);
}

TEST(ExternalMondrianTest, IoIsSuperLinear) {
  auto run = [](RowId n) {
    const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
    SimulatedDisk disk;
    BufferPool pool(&disk);
    ExternalMondrian mondrian(MondrianOptions{.l = 10});
    auto result = mondrian.Run(md, TaxonomySet::AllFree(md.table.schema()),
                               &disk, &pool);
    EXPECT_TRUE(result.ok());
    return result.value().io.total();
  };
  const uint64_t io_25k = run(25000);
  const uint64_t io_100k = run(100000);
  // 4x the data needs strictly more than 4x the I/O (extra recursion depth).
  EXPECT_GT(static_cast<double>(io_100k), 4.2 * static_cast<double>(io_25k));
}

TEST(ExternalMondrianTest, NaiveExternalizationMatchesPrivacy) {
  // memory_budget_pages = 0 disables the in-memory leaf stage: the paper-
  // style fully external recursion must still produce an l-diverse cover,
  // at strictly higher I/O than the buffered driver.
  const Microdata md = MakeRoundRobinMicrodata(30000, 64, 16);
  const TaxonomySet taxonomies = TaxonomySet::AllFree(md.table.schema());
  uint64_t naive_io = 0;
  uint64_t buffered_io = 0;
  {
    SimulatedDisk disk;
    BufferPool pool(&disk);
    ExternalMondrian naive(MondrianOptions{10}, /*memory_budget_pages=*/0);
    auto result = naive.Run(md, taxonomies, &disk, &pool);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().partition.ValidateCover(md.n()).ok());
    EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 10).ok());
    naive_io = result.value().io.total();
    EXPECT_EQ(disk.live_pages(), 0u);
  }
  {
    SimulatedDisk disk;
    BufferPool pool(&disk);
    ExternalMondrian buffered(MondrianOptions{10});
    auto result = buffered.Run(md, taxonomies, &disk, &pool);
    ASSERT_TRUE(result.ok());
    buffered_io = result.value().io.total();
  }
  EXPECT_GT(naive_io, buffered_io);
}

TEST(GeneralizedTableTest, FromCellsValidates) {
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  // Valid cells: wider than the snapped extents is fine.
  std::vector<std::vector<CodeInterval>> cells = {
      {{0, 99}, {0, 1}, {0, 99}},
      {{60, 99}, {0, 0}, {0, 99}},
  };
  auto ok = GeneralizedTable::FromCells(md, p, cells);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().group(0).extents[0], (CodeInterval{0, 99}));
  // Volume uses the declared (not actual) extents.
  EXPECT_DOUBLE_EQ(ok.value().group(0).Volume(), 100.0 * 2.0 * 100.0);

  // A tuple outside its declared cell is rejected.
  cells[1][0] = {66, 99};  // tuple 5 has age 61
  EXPECT_FALSE(GeneralizedTable::FromCells(md, p, cells).ok());
  // Arity mismatches are rejected.
  cells[1] = {{0, 99}};
  EXPECT_FALSE(GeneralizedTable::FromCells(md, p, cells).ok());
  cells.pop_back();
  EXPECT_FALSE(GeneralizedTable::FromCells(md, p, cells).ok());
}

TEST(ExternalMondrianTest, CleansUpDisk) {
  const Microdata md = MakeRoundRobinMicrodata(5000, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalMondrian mondrian(MondrianOptions{.l = 8});
  auto result =
      mondrian.Run(md, TaxonomySet::AllFree(md.table.schema()), &disk, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

}  // namespace
}  // namespace anatomy
