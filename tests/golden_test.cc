// Golden digests of every partition producer and of the published tables,
// all on one fixed generated census. The producer values were first
// captured from the nested per-group Partition layout, before the flat one
// replaced it. When Rng::NextZipf was corrected the census rows changed, so
// the census digest and every value below it were recaptured from a change
// that touched only the sampler; the reconstruction error's bits did not
// move. Any change to the generated rows, to a producer's output, to the QIT
// or ST bytes, or to the bits of the reconstruction error fails here.

#include <bit>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/external_anatomizer.h"
#include "anatomy/multi_sensitive.h"
#include "anatomy/rce.h"
#include "anatomy/sharded_anatomizer.h"
#include "common/check.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/external_mondrian.h"
#include "generalization/full_domain.h"
#include "generalization/mondrian.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::PartitionDigest;
using testing_util::TableDigest;

constexpr RowId kRows = 6000;
constexpr uint64_t kCensusSeed = 42;
constexpr int kL = 10;

/// OCC-5 over kRows generated rows.
const ExperimentDataset& Occ5() {
  static const ExperimentDataset* dataset = [] {
    auto made = MakeExperimentDataset(GenerateCensus(kRows, kCensusSeed),
                                      SensitiveFamily::kOccupation, 5);
    ANATOMY_CHECK_OK(made.status());
    return new ExperimentDataset(std::move(made).value());
  }();
  return *dataset;
}

/// One disk and one pool per shard.
struct ShardStorage {
  explicit ShardStorage(size_t shards) : disks(shards) {
    for (SimulatedDisk& disk : disks) {
      pools.push_back(std::make_unique<BufferPool>(&disk));
      disk_ptrs.push_back(&disk);
      pool_ptrs.push_back(pools.back().get());
    }
  }
  std::vector<SimulatedDisk> disks;
  std::vector<std::unique_ptr<BufferPool>> pools;
  std::vector<Disk*> disk_ptrs;
  std::vector<BufferPool*> pool_ptrs;
};

// The generated census every other case reads: a change to the generator,
// or to an Rng draw it makes, fails here first.
TEST(GoldenTest, Census) {
  EXPECT_EQ(TableDigest(GenerateCensus(kRows, kCensusSeed)),
            0xf5ee268cff0af7dfULL);
}

TEST(GoldenTest, Anatomizer) {
  auto p = Anatomizer({.l = kL, .seed = 3}).ComputePartition(Occ5().microdata);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(PartitionDigest(p.value()), 0x20f6fc162a388703ULL);
}

TEST(GoldenTest, ShardedAnatomizer) {
  auto r =
      ShardedAnatomizer({.l = kL, .seed = 5, .shards = 4, .num_threads = 2})
          .Run(Occ5().microdata);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(PartitionDigest(r.value().partition), 0x2b83a1be715a1d4fULL);
}

TEST(GoldenTest, ExternalAnatomizerRunPublished) {
  SimulatedDisk disk;
  BufferPool pool(&disk);
  auto r = ExternalAnatomizer({.l = kL, .seed = 1})
               .RunPublished(Occ5().microdata, &disk, &pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(PartitionDigest(r.value().partition), 0x9f230f9257a79ba7ULL);
}

TEST(GoldenTest, ShardedExternalAnatomizerRunPublished) {
  ShardStorage storage(4);
  auto r = ShardedExternalAnatomizer(
               {.l = kL, .seed = 7, .shards = 4, .num_threads = 2})
               .RunPublished(Occ5().microdata, storage.disk_ptrs,
                             storage.pool_ptrs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Partition& merged = r.value().merged;
  EXPECT_EQ(PartitionDigest(merged), 0x5aeca12c5cd4d803ULL);
  // Shard 3's partition, in global row ids: the last groups of `merged`.
  ASSERT_EQ(r.value().shard_groups.size(), 4u);
  Partition shard3;
  for (GroupId g = merged.num_groups() - r.value().shard_groups[3];
       g < merged.num_groups(); ++g) {
    shard3.AddGroup(merged.group(g));
  }
  EXPECT_EQ(PartitionDigest(shard3), 0xcbe0ed723bec29ebULL);
}

TEST(GoldenTest, MultiAnatomizer) {
  MultiMicrodata md;
  md.table = GenerateCensus(kRows, kCensusSeed);
  md.qi_columns = {kAge, kGender, kEducation, kMarital, kRace};
  md.sensitive_columns = {kOccupation, kSalaryClass};
  auto p = MultiAnatomizer({.l = 8, .seed = 3}).ComputePartition(md);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(PartitionDigest(p.value()), 0xb49f3d40a680255aULL);
}

TEST(GoldenTest, Mondrian) {
  auto p = Mondrian({.l = kL}).ComputePartition(Occ5().microdata,
                                                Occ5().taxonomies);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(PartitionDigest(p.value()), 0x6a8ba7f4527b003aULL);
}

TEST(GoldenTest, ExternalMondrian) {
  SimulatedDisk disk;
  BufferPool pool(&disk);
  // An 8-page budget makes the top levels split on disk. The split rule is
  // Mondrian's, so the partition is too.
  auto r = ExternalMondrian({.l = kL}, /*memory_budget_pages=*/8)
               .Run(Occ5().microdata, Occ5().taxonomies, &disk, &pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(PartitionDigest(r.value().partition), 0x6a8ba7f4527b003aULL);
}

TEST(GoldenTest, FullDomain) {
  auto r = FullDomainGeneralizer({.l = kL})
               .Compute(Occ5().microdata, Occ5().taxonomies);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(PartitionDigest(r.value().partition), 0x7cfc0db3ab1042afULL);
}

TEST(GoldenTest, AnatomizedTablesAndRce) {
  auto p = Anatomizer({.l = kL, .seed = 3}).ComputePartition(Occ5().microdata);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto tables = AnatomizedTables::Build(Occ5().microdata, p.value());
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(TableDigest(tables.value().qit()), 0xc24ef6b7ddb9851cULL);
  EXPECT_EQ(TableDigest(tables.value().st()), 0xb1f3bc0b81d2cb9aULL);
  EXPECT_EQ(std::bit_cast<uint64_t>(AnatomyRce(tables.value())),
            0x40b517fffffffefeULL);
}

}  // namespace
}  // namespace anatomy
