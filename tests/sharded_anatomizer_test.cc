#include "anatomy/sharded_anatomizer.h"

#include <algorithm>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/external_anatomizer.h"
#include "anatomy/rce.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakeRoundRobinMicrodata;
using testing_util::MakeSimpleMicrodata;

/// FNV-1a over group structure and row ids: byte-identity anchor.
uint64_t PartitionDigest(const Partition& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(p.groups.size());
  for (const auto& group : p.groups) {
    mix(group.size());
    for (RowId r : group) mix(r);
  }
  return h;
}

std::vector<Code> SensitiveColumn(const Microdata& md) {
  return md.table.column(md.sensitive_column);
}

// ------------------------------------------------------ SplitForSharding --

TEST(SplitForShardingTest, DisjointCoverWithBalancedValueCounts) {
  const Microdata md = MakeRoundRobinMicrodata(1000, 64, 16);
  const std::vector<Code> sensitive = SensitiveColumn(md);
  const size_t shards = 4;
  auto split = SplitForSharding(sensitive, 16, /*l=*/4, shards);
  ASSERT_TRUE(split.ok()) << split.status().message();
  ASSERT_EQ(split.value().shard_rows.size(), shards);
  EXPECT_EQ(split.value().requested, shards);
  EXPECT_EQ(split.value().merges, 0u);

  std::set<RowId> seen;
  for (const auto& rows : split.value().shard_rows) {
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    std::vector<uint32_t> counts(16, 0);
    for (RowId r : rows) {
      EXPECT_TRUE(seen.insert(r).second) << "row in two shards";
      ++counts[static_cast<size_t>(sensitive[r])];
    }
    // Cyclic dealing: per-shard count of each value within ceil(c_v / S),
    // and every shard stays l-eligible.
    for (Code v = 0; v < 16; ++v) {
      const uint32_t total = 1000 / 16 + (static_cast<uint32_t>(v) < 1000 % 16);
      EXPECT_LE(counts[static_cast<size_t>(v)], (total + shards - 1) / shards);
      EXPECT_LE(counts[static_cast<size_t>(v)] * 4u, rows.size());
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SplitForShardingTest, MergesShardsTheRoundingLeavesIneligible) {
  // Value 0 occurs exactly n/l times (the eligibility boundary): any shard
  // that gets ceil share of value 0 but a below-average row count tips over
  // and must be merged away.
  std::vector<std::pair<Code, Code>> rows;
  for (int i = 0; i < 5; ++i) rows.push_back({0, 0});
  for (Code v = 1; v <= 5; ++v) {
    for (int i = 0; i < 3; ++i) rows.push_back({0, v});
  }
  const Microdata md = MakeSimpleMicrodata(rows, 4, 6);
  ASSERT_EQ(md.table.num_rows(), 20u);
  const std::vector<Code> sensitive = SensitiveColumn(md);

  auto split = SplitForSharding(sensitive, 6, /*l=*/4, /*shards=*/3);
  ASSERT_TRUE(split.ok()) << split.status().message();
  EXPECT_GE(split.value().merges, 1u);
  EXPECT_EQ(split.value().requested, 3u);
  size_t covered = 0;
  for (const auto& shard : split.value().shard_rows) {
    covered += shard.size();
    std::vector<uint32_t> counts(6, 0);
    for (RowId r : shard) ++counts[static_cast<size_t>(sensitive[r])];
    for (uint32_t c : counts) EXPECT_LE(c * 4u, shard.size());
  }
  EXPECT_EQ(covered, 20u);
}

TEST(SplitForShardingTest, RejectsBadInputs) {
  const Microdata md = MakeRoundRobinMicrodata(100, 64, 10);
  const std::vector<Code> sensitive = SensitiveColumn(md);
  EXPECT_EQ(SplitForSharding(sensitive, 10, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SplitForSharding(sensitive, 10, 1, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SplitForSharding({}, 10, 4, 2).status().code(),
            StatusCode::kFailedPrecondition);
  // Ineligible input: one value everywhere.
  std::vector<Code> constant(40, 3);
  EXPECT_EQ(SplitForSharding(constant, 10, 4, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------- ShardedAnatomizer --

TEST(ShardedAnatomizerTest, SingleShardIsByteIdenticalToSequential) {
  const Microdata md = MakeRoundRobinMicrodata(977, 64, 16);
  Anatomizer sequential(AnatomizerOptions{.l = 4, .seed = 42});
  auto expected = sequential.ComputePartition(md);
  ASSERT_TRUE(expected.ok());

  ShardedAnatomizer sharded({.l = 4, .seed = 42, .shards = 1});
  auto result = sharded.Run(md);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().shards_run, 1u);
  EXPECT_EQ(result.value().merged_shards, 0u);
  EXPECT_EQ(result.value().partition.groups, expected.value().groups);
  EXPECT_EQ(PartitionDigest(result.value().partition), PartitionDigest(*expected));
}

TEST(ShardedAnatomizerTest, OutputIndependentOfThreadCount) {
  const Microdata md = MakeRoundRobinMicrodata(2000, 64, 16);
  uint64_t reference = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ShardedAnatomizer sharded(
        {.l = 5, .seed = 123, .shards = 4, .num_threads = threads});
    auto result = sharded.Run(md);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const uint64_t digest = PartitionDigest(result.value().partition);
    if (threads == 1) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "threads=" << threads;
    }
  }
}

TEST(ShardedAnatomizerTest, LDiverseCoverAndRceBoundAcrossShardCounts) {
  const RowId n = 4000;
  const int l = 4;
  const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedAnatomizer sharded(
        {.l = l, .seed = 9, .shards = shards, .num_threads = 2});
    auto result = sharded.Run(md);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_TRUE(result.value().partition.ValidateCover(n).ok());
    EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, l).ok());

    auto tables = AnatomizedTables::Build(md, result.value().partition);
    ASSERT_TRUE(tables.ok());
    const double rce = AnatomyRce(*tables);
    const double bound =
        RceLowerBound(n, l) *
        (1.0 + static_cast<double>(shards) * (l - 1) / static_cast<double>(n));
    EXPECT_GE(rce, RceLowerBound(n, l) * (1.0 - 1e-9)) << "shards=" << shards;
    EXPECT_LE(rce, bound * (1.0 + 1e-9)) << "shards=" << shards;
  }
}

TEST(ShardedAnatomizerTest, SkewedDataStillShardsCorrectly) {
  // Heavy skew: value 0 at the eligibility boundary n/l.
  std::vector<std::pair<Code, Code>> rows;
  const int n = 400, l = 4;
  for (int i = 0; i < n / l; ++i) rows.push_back({static_cast<Code>(i % 8), 0});
  for (int i = n / l; i < n; ++i) {
    rows.push_back(
        {static_cast<Code>(i % 8), static_cast<Code>(1 + i % 15)});
  }
  const Microdata md = MakeSimpleMicrodata(rows, 8, 16);
  ShardedAnatomizer sharded({.l = l, .seed = 77, .shards = 8});
  auto result = sharded.Run(md);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().partition.ValidateCover(n).ok());
  EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, l).ok());
}

TEST(ShardedAnatomizerTest, RejectsZeroShards) {
  const Microdata md = MakeRoundRobinMicrodata(100, 64, 10);
  ShardedAnatomizer sharded({.l = 4, .seed = 1, .shards = 0});
  EXPECT_EQ(sharded.Run(md).status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------- ShardedExternalAnatomizer --

TEST(ShardedExternalAnatomizerTest, SingleShardMatchesSequentialPipeline) {
  const Microdata md = MakeRoundRobinMicrodata(600, 64, 16);
  SimulatedDisk seq_disk;
  BufferPool seq_pool(&seq_disk, 50);
  ExternalAnatomizer sequential(AnatomizerOptions{.l = 4, .seed = 11});
  auto expected = sequential.Run(md, &seq_disk, &seq_pool);
  ASSERT_TRUE(expected.ok()) << expected.status().message();

  SimulatedDisk shard_disk;
  Disk* disks[] = {&shard_disk};
  ShardedExternalAnatomizer sharded({.l = 4, .seed = 11, .shards = 1});
  auto result = sharded.Run(md, disks, 50);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().partition.groups, expected.value().partition.groups);
  EXPECT_EQ(result.value().io.total(), expected.value().io.total());
  ASSERT_EQ(result.value().shard_pool_pages.size(), 1u);
  EXPECT_EQ(result.value().shard_pool_pages[0], 50u);
}

TEST(ShardedExternalAnatomizerTest, FourShardsValidBudgetedAndDeterministic) {
  const RowId n = 1200;
  const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
  uint64_t reference = 0;
  for (size_t threads : {1u, 4u}) {
    SimulatedDisk d0, d1, d2, d3;
    Disk* disks[] = {&d0, &d1, &d2, &d3};
    ShardedExternalAnatomizer sharded(
        {.l = 4, .seed = 5, .shards = 4, .num_threads = threads});
    auto result = sharded.Run(md, disks, 50);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_TRUE(result.value().partition.ValidateCover(n).ok());
    EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 4).ok());
    EXPECT_EQ(result.value().shards_run, 4u);

    // Per-shard pool budgets sum exactly to the configured capacity.
    size_t budget = 0;
    for (size_t pages : result.value().shard_pool_pages) {
      EXPECT_GE(pages, 8u);
      budget += pages;
    }
    EXPECT_EQ(budget, 50u);
    EXPECT_GT(result.value().io.total(), 0u);

    const uint64_t digest = PartitionDigest(result.value().partition);
    if (threads == 1u) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference);
    }
  }
}

TEST(ShardedExternalAnatomizerTest, TotalIoStaysLinearAcrossShardCounts) {
  // Theorem 3 per shard: summing O(n_s / b) over shards stays O(n / b). Each
  // shard pays a fixed page overhead (one page per bucket file, pipeline
  // scratch), so the comparison holds the per-pipeline pool at the paper's
  // 50 pages (total budget scales with S) and allows a constant-factor
  // margin for the fixed costs, which amortize away at bench scale.
  const Microdata md = MakeRoundRobinMicrodata(2000, 64, 16);
  SimulatedDisk seq_disk;
  BufferPool seq_pool(&seq_disk, 50);
  ExternalAnatomizer sequential(AnatomizerOptions{.l = 4, .seed = 3});
  auto baseline = sequential.Run(md, &seq_disk, &seq_pool);
  ASSERT_TRUE(baseline.ok());

  SimulatedDisk d0, d1, d2, d3;
  Disk* disks[] = {&d0, &d1, &d2, &d3};
  ShardedExternalAnatomizer sharded({.l = 4, .seed = 3, .shards = 4});
  auto result = sharded.Run(md, disks, 200);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_LE(result.value().io.total(), 4 * baseline.value().io.total());
}

TEST(ShardedExternalAnatomizerTest, RejectsBadConfigurations) {
  const Microdata md = MakeRoundRobinMicrodata(200, 64, 10);
  SimulatedDisk d0, d1;
  Disk* one_disk[] = {&d0};
  Disk* two_disks[] = {&d0, &d1};

  // Fewer disks than requested shards.
  ShardedExternalAnatomizer two_shards({.l = 4, .seed = 1, .shards = 2});
  EXPECT_EQ(two_shards.Run(md, one_disk, 50).status().code(),
            StatusCode::kInvalidArgument);

  // Pool too small to give every shard a workable budget.
  EXPECT_EQ(two_shards.Run(md, two_disks, 10).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace anatomy
