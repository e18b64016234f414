#include <set>

#include <gtest/gtest.h>

#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/full_domain.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakeSimpleMicrodata;

TEST(LevelIntervalTest, FreeAttributeBinaryLevels) {
  const Taxonomy tax = Taxonomy::Free(100);
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax, 37, 0),
            (CodeInterval{37, 37}));
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax, 37, 1),
            (CodeInterval{36, 37}));
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax, 37, 3),
            (CodeInterval{32, 39}));
  // The last interval is truncated by the domain.
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax, 99, 4),
            (CodeInterval{96, 99}));
  // Level 7 (128 >= 100) covers everything.
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax, 37, 7),
            (CodeInterval{0, 99}));
  EXPECT_EQ(FullDomainGeneralizer::MaxLevel(tax), 7);
}

TEST(LevelIntervalTest, TreeAttributeUsesHierarchy) {
  auto tax = Taxonomy::BuildBalanced(83, 3);
  ASSERT_TRUE(tax.ok());
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax.value(), 7, 0),
            (CodeInterval{7, 7}));
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax.value(), 7, 1),
            (CodeInterval{5, 9}));
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax.value(), 7, 2),
            (CodeInterval{0, 24}));
  EXPECT_EQ(FullDomainGeneralizer::LevelInterval(tax.value(), 7, 3),
            (CodeInterval{0, 82}));
  EXPECT_EQ(FullDomainGeneralizer::MaxLevel(tax.value()), 3);
}

TEST(FullDomainTest, AlreadyDiverseDataNeedsNoGeneralization) {
  // Each X value hosts all sensitive values equally: level 0 works.
  std::vector<std::pair<Code, Code>> rows;
  for (Code x = 0; x < 8; ++x) {
    for (Code s = 0; s < 4; ++s) rows.push_back({x, s});
  }
  Microdata md = MakeSimpleMicrodata(rows, 8, 4);
  FullDomainGeneralizer generalizer(FullDomainOptions{.l = 4});
  auto result =
      generalizer.Compute(md, TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().levels, (std::vector<int>{0}));
  EXPECT_TRUE(result.value().suppressed.empty());
  EXPECT_EQ(result.value().partition.num_groups(), 8u);
}

TEST(FullDomainTest, GeneralizesUntilDiverse) {
  // Sensitive value equals x % 2: single-x classes are pure, so the level
  // must rise until classes mix both parities.
  std::vector<std::pair<Code, Code>> rows;
  for (RowId i = 0; i < 256; ++i) {
    const Code x = static_cast<Code>(i % 16);
    rows.push_back({x, static_cast<Code>(x % 2)});
  }
  Microdata md = MakeSimpleMicrodata(rows, 16, 4);
  FullDomainGeneralizer generalizer(
      FullDomainOptions{.l = 2, .max_suppression = 0.0});
  auto result =
      generalizer.Compute(md, TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().levels[0], 1);
  EXPECT_TRUE(result.value().suppressed.empty());
  // The partition (all rows kept) must be 2-diverse.
  EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 2).ok());
  EXPECT_TRUE(result.value().partition.ValidateCover(md.n()).ok());
}

TEST(FullDomainTest, SuppressionWithinBudget) {
  // 99 balanced rows + 1 outlier x that is a pure class even after a couple
  // of levels: suppression absorbs it once the budget allows.
  std::vector<std::pair<Code, Code>> rows;
  for (RowId i = 0; i < 96; ++i) {
    rows.push_back({static_cast<Code>(i % 8), static_cast<Code>(i % 4)});
  }
  for (int i = 0; i < 4; ++i) rows.push_back({63, 3});  // far-away pure class
  Microdata md = MakeSimpleMicrodata(rows, 64, 4);
  FullDomainGeneralizer generalizer(
      FullDomainOptions{.l = 2, .max_suppression = 0.05});
  auto result =
      generalizer.Compute(md, TaxonomySet::AllFree(md.table.schema()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& value = result.value();
  EXPECT_LE(value.SuppressionRate(md.n()), 0.05);
  // Kept rows + suppressed rows = all rows, disjoint.
  std::set<RowId> seen(value.suppressed.begin(), value.suppressed.end());
  for (GroupId g = 0; g < value.partition.num_groups(); ++g) {
    const std::span<const RowId> group = value.partition.group(g);
    for (RowId r : group) EXPECT_TRUE(seen.insert(r).second);
  }
  EXPECT_EQ(seen.size(), md.n());
}

TEST(FullDomainTest, FailsWhenIneligible) {
  std::vector<std::pair<Code, Code>> rows(64, {0, 0});
  Microdata md = MakeSimpleMicrodata(rows, 8, 4);
  FullDomainGeneralizer generalizer(
      FullDomainOptions{.l = 2, .max_suppression = 0.0});
  EXPECT_EQ(generalizer.Compute(md, TaxonomySet::AllFree(md.table.schema()))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(FullDomainTest, PublicationCellsAreLevelIntervals) {
  const Table census = GenerateCensus(4000, 13);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  FullDomainGeneralizer generalizer(
      FullDomainOptions{.l = 5, .max_suppression = 0.05});
  auto result = generalizer.Compute(md, dataset.value().taxonomies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto publication = BuildFullDomainPublication(md, dataset.value().taxonomies,
                                                result.value());
  ASSERT_TRUE(publication.ok()) << publication.status().ToString();
  const FullDomainPublication& pub = publication.value();
  EXPECT_EQ(pub.kept_microdata.n() + result.value().suppressed.size(), md.n());
  // Single-dimension encoding invariant: on each attribute, any two cells
  // are identical or disjoint.
  const auto& groups = pub.table.groups();
  for (size_t a = 0; a < groups.size(); ++a) {
    for (size_t b = a + 1; b < groups.size(); ++b) {
      for (size_t i = 0; i < md.d(); ++i) {
        const CodeInterval& ea = groups[a].extents[i];
        const CodeInterval& eb = groups[b].extents[i];
        EXPECT_TRUE(ea == eb || !ea.Intersects(eb));
      }
    }
  }
}

TEST(FullDomainTest, RejectsBadOptions) {
  Microdata md = MakeSimpleMicrodata({{0, 0}, {1, 1}});
  TaxonomySet taxonomies = TaxonomySet::AllFree(md.table.schema());
  EXPECT_FALSE(FullDomainGeneralizer(FullDomainOptions{.l = 0})
                   .Compute(md, taxonomies)
                   .ok());
  EXPECT_FALSE(
      FullDomainGeneralizer(FullDomainOptions{.l = 2, .max_suppression = 1.5})
          .Compute(md, taxonomies)
          .ok());
}

}  // namespace
}  // namespace anatomy
