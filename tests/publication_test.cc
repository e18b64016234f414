// Analyst-side publication loading (AnatomizedTables::FromPublishedTables),
// the CSV round trip of a full publication, the on-disk manifest checks
// (LoadPublication geometry, VerifyPublication group ids, the streaming
// record reader), and the extra l-diversity instantiations (entropy
// l-diversity).

#include <sstream>

#include <gtest/gtest.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "privacy/ldiversity.h"
#include "query/anatomy_estimator.h"
#include "query/exact_evaluator.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/publication.h"
#include "storage/simulated_disk.h"
#include "table/csv.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;
using testing_util::TableDigest;

Partition PaperPartition() {
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return p;
}

AnatomizedTables PaperTables() {
  auto tables = AnatomizedTables::Build(HospitalExample(), PaperPartition());
  ANATOMY_CHECK_OK(tables.status());
  return std::move(tables).value();
}

TEST(PublishedTablesTest, RoundTripThroughTables) {
  const AnatomizedTables original = PaperTables();
  auto loaded = AnatomizedTables::FromPublishedTables(original.qit(),
                                                      original.st());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AnatomizedTables& view = loaded.value();
  EXPECT_EQ(view.num_groups(), original.num_groups());
  EXPECT_EQ(view.num_rows(), original.num_rows());
  for (GroupId g = 0; g < view.num_groups(); ++g) {
    EXPECT_EQ(view.group_size(g), original.group_size(g));
    EXPECT_EQ(view.group_histogram(g), original.group_histogram(g));
  }
  for (RowId r = 0; r < view.num_rows(); ++r) {
    EXPECT_EQ(view.group_of_row(r), original.group_of_row(r));
  }
}

TEST(PublishedTablesTest, RoundTripThroughCsv) {
  const AnatomizedTables original = PaperTables();
  std::ostringstream qit_csv;
  std::ostringstream st_csv;
  ASSERT_TRUE(WriteCsv(original.qit(), qit_csv).ok());
  ASSERT_TRUE(WriteCsv(original.st(), st_csv).ok());

  std::istringstream qit_in(qit_csv.str());
  std::istringstream st_in(st_csv.str());
  auto qit = ReadCsv(original.qit().schema_ptr(), qit_in);
  auto st = ReadCsv(original.st().schema_ptr(), st_in);
  ASSERT_TRUE(qit.ok()) << qit.status().ToString();
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  auto loaded = AnatomizedTables::FromPublishedTables(qit.value(), st.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(VerifyAnatomizedLDiversity(loaded.value(), 2).ok());
}

TEST(PublishedTablesTest, AnalystGetsIdenticalEstimates) {
  // An analyst holding only the published files computes exactly what the
  // publisher-side estimator computes.
  const Table census = GenerateCensus(5000, 31);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 4);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 8});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto original = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(original.ok());
  auto loaded = AnatomizedTables::FromPublishedTables(original.value().qit(),
                                                      original.value().st());
  ASSERT_TRUE(loaded.ok());

  AnatomyEstimator publisher_side(original.value());
  AnatomyEstimator analyst_side(loaded.value());
  WorkloadOptions options;
  options.qd = 3;
  options.s = 0.07;
  options.seed = 5;
  auto generator = WorkloadGenerator::Create(md, options);
  ASSERT_TRUE(generator.ok());
  for (int i = 0; i < 40; ++i) {
    const CountQuery query = generator.value().Next();
    EXPECT_DOUBLE_EQ(publisher_side.Estimate(query),
                     analyst_side.Estimate(query));
  }
}

TEST(PublishedTablesTest, SortsAnyStOrderAndRejectsDuplicates) {
  const AnatomizedTables original = PaperTables();
  const Table& st = original.st();
  // The ST's records in reverse: the loader sorts them back into (Group-ID,
  // As) order, and every group view matches the original.
  std::vector<RowId> reversed(st.num_rows());
  for (RowId r = 0; r < st.num_rows(); ++r) {
    reversed[r] = st.num_rows() - 1 - r;
  }
  auto loaded = AnatomizedTables::FromPublishedTables(
      original.qit(), st.SelectRows(reversed));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(TableDigest(loaded.value().st()),
            TableDigest(st));
  for (GroupId g = 0; g < original.num_groups(); ++g) {
    EXPECT_EQ(loaded.value().group_histogram(g), original.group_histogram(g));
  }
  // The first group's second record made a copy of its first: the group's
  // counts still sum to its size, so only the duplicate check rejects it.
  Table duplicated = st;
  duplicated.set(1, 1, duplicated.at(0, 1));
  duplicated.set(1, 2, duplicated.at(0, 2));
  EXPECT_EQ(AnatomizedTables::FromPublishedTables(original.qit(), duplicated)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PublishedTablesTest, RejectsInconsistentPublications) {
  const AnatomizedTables original = PaperTables();

  // ST count not matching the QIT group size.
  {
    Table st = original.st();
    st.set(0, 2, st.at(0, 2) + 1);
    EXPECT_FALSE(
        AnatomizedTables::FromPublishedTables(original.qit(), st).ok());
  }
  // Non-positive ST count.
  {
    Table st = original.st();
    st.set(0, 2, 0);
    EXPECT_FALSE(
        AnatomizedTables::FromPublishedTables(original.qit(), st).ok());
  }
  // Wrong ST arity.
  {
    EXPECT_FALSE(
        AnatomizedTables::FromPublishedTables(original.qit(), original.qit())
            .ok());
  }
  // QIT without a Group-ID column.
  {
    const Table bare = original.qit().ProjectColumns({0, 1, 2});
    EXPECT_FALSE(
        AnatomizedTables::FromPublishedTables(bare, original.st()).ok());
  }
}

// ------------------------------------------------- on-disk publication --

using Records = std::vector<std::vector<int32_t>>;

/// Commits hand-written QIT and ST records as a publication on `disk`.
StorageManifest CommitRecords(SimulatedDisk& disk, const Records& qit,
                              const Records& st, int32_t l) {
  BufferPool pool(&disk);
  RecordFile qit_file(&disk, qit.front().size());
  RecordFile st_file(&disk, st.front().size());
  {
    RecordWriter writer(&pool, &qit_file);
    for (const auto& rec : qit) ANATOMY_CHECK_OK(writer.Append(rec));
  }
  {
    RecordWriter writer(&pool, &st_file);
    for (const auto& rec : st) ANATOMY_CHECK_OK(writer.Append(rec));
  }
  ANATOMY_CHECK_OK(pool.FlushAll());
  auto manifest = CommitPublication(&disk, qit_file, st_file, l);
  ANATOMY_CHECK_OK(manifest.status());
  return std::move(manifest).value();
}

/// Two groups of two tuples over one QI: QIT [qi, group], ST [group, value,
/// count]. 2-diverse.
StorageManifest CommitSmallPublication(SimulatedDisk& disk) {
  return CommitRecords(disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
                       {{0, 1, 1}, {0, 2, 1}, {1, 1, 1}, {1, 3, 1}}, 2);
}

/// Rewrites int32 slot `slot` of the manifest root; the disk re-seals the
/// checksum, so only the manifest's own checks can catch the change.
void PatchRootSlot(SimulatedDisk& disk, PageId root, size_t slot,
                   int32_t value) {
  Page page;
  ANATOMY_CHECK_OK(disk.ReadPage(root, page));
  page.WriteInt32(slot * sizeof(int32_t), value);
  ANATOMY_CHECK_OK(disk.WritePage(root, page));
}

// Root slots: [5] QIT fields, [6] ST fields, [7..8] QIT records (lo, hi),
// [9..10] ST records (lo, hi).
constexpr size_t kQitFieldsSlot = 5;
constexpr size_t kStFieldsSlot = 6;
constexpr size_t kQitRecordsHiSlot = 8;
constexpr size_t kStRecordsHiSlot = 10;

TEST(StoredPublicationTest, ConsistentPublicationLoadsAndVerifies) {
  SimulatedDisk disk;
  const StorageManifest manifest = CommitSmallPublication(disk);
  auto loaded = LoadPublication(&disk, manifest.root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().qit.records, 4u);
  EXPECT_EQ(loaded.value().st.records, 4u);
  EXPECT_TRUE(VerifyPublication(&disk, manifest).ok());

  auto qit = testing_util::ReadPublishedRecords(&disk, loaded.value().qit);
  ASSERT_TRUE(qit.ok()) << qit.status().ToString();
  EXPECT_EQ(qit.value(), (Records{{3, 0}, {5, 0}, {7, 1}, {9, 1}}));
}

TEST(StoredPublicationTest, LoadRejectsRecordCountBeyondListedPages) {
  // 2^44 records over one page: accepting it would let a reader size
  // buffers from the count before reading a single page.
  for (size_t slot : {kQitRecordsHiSlot, kStRecordsHiSlot}) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    SimulatedDisk disk;
    const StorageManifest manifest = CommitSmallPublication(disk);
    PatchRootSlot(disk, manifest.root, slot, 1 << 12);
    EXPECT_EQ(LoadPublication(&disk, manifest.root).status().code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kDataLoss);
  }
}

TEST(StoredPublicationTest, LoadRejectsZeroWidthRecords) {
  for (size_t slot : {kQitFieldsSlot, kStFieldsSlot}) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    SimulatedDisk disk;
    const StorageManifest manifest = CommitSmallPublication(disk);
    PatchRootSlot(disk, manifest.root, slot, 0);
    EXPECT_EQ(LoadPublication(&disk, manifest.root).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(StoredPublicationTest, LoadRejectsRecordsWiderThanAPage) {
  // 1024 int32 fields need 4096 bytes; a page holds 4092 after its header.
  for (size_t slot : {kQitFieldsSlot, kStFieldsSlot}) {
    for (int32_t fields : {1024, -1}) {
      SCOPED_TRACE("slot " + std::to_string(slot) + " fields " +
                   std::to_string(fields));
      SimulatedDisk disk;
      const StorageManifest manifest = CommitSmallPublication(disk);
      PatchRootSlot(disk, manifest.root, slot, fields);
      EXPECT_EQ(LoadPublication(&disk, manifest.root).status().code(),
                StatusCode::kDataLoss);
    }
  }
}

TEST(StoredPublicationTest, ReaderChecksTheCountBeforeReading) {
  // A hand-built meta never went through LoadPublication: the reader runs
  // the same geometry checks itself and reads nothing.
  SimulatedDisk disk;
  const StorageManifest manifest = CommitSmallPublication(disk);
  PublishedFileMeta meta = manifest.qit;
  meta.records = uint64_t{1} << 44;
  PublishedRecordReader reader(&disk, meta);
  EXPECT_FALSE(reader.Next());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);

  // A count the pages could hold but do not: the shortfall surfaces at the
  // end of the file.
  meta.records = 5;
  PublishedRecordReader short_reader(&disk, meta);
  size_t seen = 0;
  while (short_reader.Next()) ++seen;
  EXPECT_EQ(seen, 4u);
  EXPECT_EQ(short_reader.status().code(), StatusCode::kDataLoss);

  // Fewer records claimed than stored: caught before the extra ones are
  // handed out.
  meta.records = 3;
  PublishedRecordReader long_reader(&disk, meta);
  EXPECT_FALSE(long_reader.Next());
  EXPECT_EQ(long_reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoredPublicationTest, VerifyRejectsOutOfRangeGroupIds) {
  const Records st = {{0, 1, 1}, {0, 2, 1}, {1, 1, 1}, {1, 3, 1}};
  // Group id 4 in a 4-record QIT: outside [0, 4).
  {
    SimulatedDisk disk;
    const StorageManifest manifest =
        CommitRecords(disk, {{3, 0}, {5, 0}, {7, 1}, {9, 4}}, st, 2);
    const Status status = VerifyPublication(&disk, manifest);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("outside"), std::string::npos)
        << status.ToString();
  }
  // A negative group id.
  {
    SimulatedDisk disk;
    const StorageManifest manifest =
        CommitRecords(disk, {{3, 0}, {5, 0}, {7, -1}, {9, 1}}, st, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
  // An ST group id past the QIT's record count.
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
        {{0, 1, 1}, {0, 2, 1}, {1, 1, 1}, {1, 3, 1}, {1 << 30, 4, 1}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(StoredPublicationTest, VerifyKeepsEveryConsistencyCheck) {
  // ST count sum differs from the QIT group size.
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
        {{0, 1, 1}, {0, 2, 2}, {1, 1, 1}, {1, 3, 1}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
  // A QIT group absent from the ST (and the group sets differ).
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}}, {{0, 1, 1}, {0, 2, 1}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
  // Same number of groups, but not the same groups.
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
        {{0, 1, 1}, {0, 2, 1}, {2, 1, 1}, {2, 3, 1}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
  // A non-positive ST count.
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
        {{0, 1, 1}, {0, 2, 1}, {1, 1, 2}, {1, 3, 0}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
  // A group whose most frequent value breaks the claimed l-diversity.
  {
    SimulatedDisk disk;
    const StorageManifest manifest = CommitRecords(
        disk, {{3, 0}, {5, 0}, {7, 1}, {9, 1}},
        {{0, 1, 1}, {0, 2, 1}, {1, 1, 2}}, 2);
    EXPECT_EQ(VerifyPublication(&disk, manifest).code(),
              StatusCode::kFailedPrecondition);
  }
}

// ------------------------------------------------- entropy l-diversity --

TEST(EntropyDiversityTest, GroupSemantics) {
  // Uniform over 4 values: entropy = log 4 -> entropy 4-diverse.
  std::vector<std::pair<Code, uint32_t>> uniform = {
      {0, 2}, {1, 2}, {2, 2}, {3, 2}};
  EXPECT_TRUE(GroupIsEntropyLDiverse(uniform, 4.0));
  EXPECT_FALSE(GroupIsEntropyLDiverse(uniform, 4.5));

  // Skewed: {5, 1, 1, 1}: entropy < log 4 but > log 2.
  std::vector<std::pair<Code, uint32_t>> skewed = {
      {0, 5}, {1, 1}, {2, 1}, {3, 1}};
  EXPECT_FALSE(GroupIsEntropyLDiverse(skewed, 4.0));
  EXPECT_TRUE(GroupIsEntropyLDiverse(skewed, 2.0));
}

TEST(EntropyDiversityTest, AnatomizeOutputIsEntropyDiverse) {
  // Anatomize groups are uniform over >= l distinct values: entropy
  // l-diversity holds with room to spare.
  const Microdata md = testing_util::MakeRoundRobinMicrodata(800, 64, 16);
  Anatomizer anatomizer(AnatomizerOptions{.l = 8, .seed = 3});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(VerifyEntropyLDiversity(tables.value(), 8.0).ok());
}

TEST(EntropyDiversityTest, PaperTablesAreEntropyTwoDiverse) {
  // Group 1 is uniform over 2 diseases (entropy log 2); group 2 has entropy
  // above log 2 as well (three values). Entropy 3-diversity fails.
  const AnatomizedTables tables = PaperTables();
  EXPECT_TRUE(VerifyEntropyLDiversity(tables, 2.0).ok());
  EXPECT_FALSE(VerifyEntropyLDiversity(tables, 3.0).ok());
}

}  // namespace
}  // namespace anatomy
