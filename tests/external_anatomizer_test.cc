#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "anatomy/external_anatomizer.h"
#include "data/census.h"
#include "storage/page_file.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "test_util.h"
#include "storage/simulated_disk.h"

namespace anatomy {
namespace {

using testing_util::MakeRoundRobinMicrodata;

TEST(ExternalAnatomizerTest, HospitalExampleMatchesGuarantees) {
  const Microdata md = HospitalExample();
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 2, .seed = 1});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().partition.ValidateCover(8).ok());
  EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 2).ok());
  EXPECT_EQ(result.value().partition.num_groups(), 4u);
  EXPECT_GT(result.value().io.total(), 0u);
  EXPECT_GT(result.value().qit_pages, 0u);
  EXPECT_GT(result.value().st_pages, 0u);
}

TEST(ExternalAnatomizerTest, ProducesSamePropertiesAsInMemory) {
  const Microdata md = MakeRoundRobinMicrodata(5003, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 5});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Partition& p = result.value().partition;
  EXPECT_TRUE(p.ValidateCover(md.n()).ok());
  EXPECT_TRUE(p.ValidateLDiverse(md, 10).ok());
  EXPECT_EQ(p.num_groups(), md.n() / 10);
  for (const auto& group : p.groups) {
    std::set<Code> values;
    for (RowId r : group) values.insert(md.sensitive_value(r));
    EXPECT_EQ(values.size(), group.size());  // Property 3
  }
}

TEST(ExternalAnatomizerTest, IoScalesLinearly) {
  // Theorem 3: O(n/b) I/Os. Doubling n should roughly double the I/O count.
  auto run = [](RowId n) {
    const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
    SimulatedDisk disk;
    BufferPool pool(&disk);
    ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 1});
    auto result = anatomizer.Run(md, &disk, &pool);
    EXPECT_TRUE(result.ok());
    return result.value().io.total();
  };
  const uint64_t io_20k = run(20000);
  const uint64_t io_40k = run(40000);
  EXPECT_GT(io_20k, 0u);
  EXPECT_NEAR(static_cast<double>(io_40k) / io_20k, 2.0, 0.25);
}

TEST(ExternalAnatomizerTest, IoIsAFewSequentialPasses) {
  // The pipeline is ~3 read passes + ~3 write passes over ~n/b pages.
  const RowId n = 50000;
  const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 1});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok());
  // Tuple record: d + 2 = 3 fields -> 341 records/page -> ~147 pages.
  const double input_pages = std::ceil(n / 341.0);
  EXPECT_LT(result.value().io.total(), 10 * input_pages);
  EXPECT_GT(result.value().io.total(), 4 * input_pages);
}

TEST(ExternalAnatomizerTest, IoMatchesTheoremThreeAccounting) {
  // With lambda <= fan-out (single-level hashing) and an ample pool, the
  // pipeline is exactly:
  //   reads : input + buckets + group file            = 2*T + G
  //   writes: buckets + group file + QIT + ST         = T + G + Q + S
  // where T/G/Q/S are the page counts of the tuple, group, QIT, and ST
  // files. Verify the counters against those closed forms.
  const RowId n = 30000;
  const int l = 10;
  const Microdata md = MakeRoundRobinMicrodata(n, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk, 54);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = l, .seed = 1});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t d = md.d();
  auto pages = [&](size_t fields, uint64_t records) {
    const size_t per_page = RecordPageLayout::RecordsPerPage(fields);
    return (records + per_page - 1) / per_page;
  };
  const uint64_t tuple_pages = pages(d + 2, n);
  // Bucket files: one per sensitive value, each with its own partial page.
  uint64_t bucket_pages = 0;
  for (Code v = 0; v < 16; ++v) {
    bucket_pages += pages(d + 2, n / 16 + ((n % 16) > static_cast<RowId>(v)));
  }
  const uint64_t group_pages = pages(d + 3, n);  // n tuples, n % l == 0
  const uint64_t qit_pages = pages(d + 1, n);
  const uint64_t st_pages = pages(3, n);  // Anatomize: one record per tuple

  EXPECT_EQ(result.value().qit_pages, qit_pages);
  EXPECT_EQ(result.value().st_pages, st_pages);
  EXPECT_EQ(result.value().io.reads, tuple_pages + bucket_pages + group_pages);
  EXPECT_EQ(result.value().io.writes,
            bucket_pages + group_pages + qit_pages + st_pages);
}

TEST(ExternalAnatomizerTest, ThrashingPoolIoIsPinned) {
  // 50 live bucket cursors plus the group writer against a 50-page pool:
  // stage 2 cycles through more hot pages than there are frames, so the
  // count depends on the LRU's exact eviction order, not on a closed form.
  // Any change to the pool's replacement order moves it.
  const Microdata md = MakeRoundRobinMicrodata(20011, 64, 50);
  SimulatedDisk disk;
  BufferPool pool(&disk, kDefaultPoolPages);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 3});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().io.reads, 20205u);
  EXPECT_EQ(result.value().io.writes, 284u);
}

TEST(ExternalAnatomizerTest, LambdaAbovePoolFanoutStillWorks) {
  // 60 distinct sensitive values against a 16-page pool: forces the
  // two-level hash refinement path.
  std::vector<std::pair<Code, Code>> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({static_cast<Code>(i % 50), static_cast<Code>(i % 60)});
  }
  Microdata md = testing_util::MakeSimpleMicrodata(rows, 50, 60);
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 2});
  auto result = anatomizer.Run(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().partition.ValidateLDiverse(md, 10).ok());
  EXPECT_TRUE(result.value().partition.ValidateCover(md.n()).ok());
}

TEST(ExternalAnatomizerTest, FailsOnIneligibleInput) {
  std::vector<std::pair<Code, Code>> rows(100, {0, 0});
  Microdata md = testing_util::MakeSimpleMicrodata(rows);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 2});
  EXPECT_EQ(anatomizer.Run(md, &disk, &pool).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExternalAnatomizerTest, DiskIsCleanAfterRun) {
  // All intermediate and published files are freed; repeated runs must not
  // leak simulated pages.
  const Microdata md = MakeRoundRobinMicrodata(2000, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 8, .seed = 1});
  for (int i = 0; i < 3; ++i) {
    auto result = anatomizer.Run(md, &disk, &pool);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(ExternalAnatomizerTest, WorksOnCensusScale) {
  const Table census = GenerateCensus(20000, 42);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5);
  ASSERT_TRUE(dataset.ok());
  SimulatedDisk disk;
  BufferPool pool(&disk);
  ExternalAnatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 1});
  auto result = anatomizer.Run(dataset.value().microdata, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(
      result.value().partition.ValidateLDiverse(dataset.value().microdata, 10)
          .ok());
}

}  // namespace
}  // namespace anatomy
