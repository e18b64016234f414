#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "privacy/ldiversity.h"

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/external_join.h"
#include "anatomy/join.h"
#include "anatomy/streaming.h"
#include "data/census.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "storage/fault_injection.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakePartition;

// ----------------------------------------------------------- streaming --

TEST(StreamingAnatomizerTest, EmitsGroupsBeforeStreamEnd) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 4, .seed = 1, .emit_threshold = 8},
      /*sensitive_domain=*/10);
  // Feed a balanced stream: groups must appear long before Finish.
  for (RowId i = 0; i < 64; ++i) {
    ASSERT_TRUE(streaming.Add(i, static_cast<Code>(i % 10)).ok());
  }
  EXPECT_GT(streaming.emitted_groups(), 0u);
  EXPECT_LT(streaming.buffered(), 64u);
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(partition.value().ValidateCover(64).ok());
}

TEST(StreamingAnatomizerTest, FinalPartitionIsLDiverse) {
  const Table census = GenerateCensus(8000, 23);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 3);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;

  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 10, .seed = 2},
      md.sensitive_attribute().domain_size);
  for (RowId r = 0; r < md.n(); ++r) {
    ASSERT_TRUE(streaming.Add(r, md.sensitive_value(r)).ok());
  }
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(partition.value().ValidateCover(md.n()).ok());
  EXPECT_TRUE(partition.value().ValidateLDiverse(md, 10).ok());
  // Every group has pairwise-distinct sensitive values.
  for (GroupId g = 0; g < partition.value().num_groups(); ++g) {
    const std::span<const RowId> group = partition.value().group(g);
    std::set<Code> values;
    for (RowId r : group) values.insert(md.sensitive_value(r));
    EXPECT_EQ(values.size(), group.size());
  }
}

TEST(StreamingAnatomizerTest, RejectsBadUsage) {
  StreamingAnatomizer streaming(StreamingAnatomizerOptions{.l = 2, .seed = 1},
                                4);
  EXPECT_FALSE(streaming.Add(0, 9).ok());   // out of domain
  EXPECT_FALSE(streaming.Add(0, -1).ok());  // out of domain
  ASSERT_TRUE(streaming.Add(0, 0).ok());
  ASSERT_TRUE(streaming.Add(1, 1).ok());
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok());
  EXPECT_FALSE(streaming.Finish().ok());    // double Finish
  EXPECT_FALSE(streaming.Add(2, 0).ok());   // Add after Finish
}

TEST(StreamingAnatomizerTest, FailsOnHopelessTail) {
  // All tuples share one value: no group can ever form, and the tail cannot
  // be absorbed.
  StreamingAnatomizer streaming(StreamingAnatomizerOptions{.l = 2, .seed = 1},
                                4);
  for (RowId i = 0; i < 10; ++i) {
    ASSERT_TRUE(streaming.Add(i, 2).ok());
  }
  EXPECT_EQ(streaming.emitted_groups(), 0u);
  EXPECT_EQ(streaming.Finish().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamingAnatomizerTest, MatchesBatchOnSkewedStream) {
  // Adversarial arrival order: all heavy-value tuples first. The emit
  // threshold must keep enough diversity in the buffer to absorb them.
  const int l = 5;
  std::vector<std::pair<RowId, Code>> stream;
  RowId next_row = 0;
  for (int i = 0; i < 40; ++i) stream.push_back({next_row++, 0});
  for (int i = 0; i < 160; ++i) {
    stream.push_back({next_row++, static_cast<Code>(1 + i % 19)});
  }
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = l, .seed = 3, .emit_threshold = 64},
      20);
  for (const auto& [row, value] : stream) {
    ASSERT_TRUE(streaming.Add(row, value).ok());
  }
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(partition.value().ValidateCover(next_row).ok());
  // l-diversity via distinct values per group.
  for (GroupId g = 0; g < partition.value().num_groups(); ++g) {
    const std::span<const RowId> group = partition.value().group(g);
    EXPECT_GE(group.size(), static_cast<size_t>(l));
  }
}

// FNV-1a digest anchoring byte-identity of the partition across refactors
// (same constants and mixing as the capture run that produced the golden
// values below against the pre-hash-set implementation).
uint64_t PartitionDigest(const Partition& p) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(p.num_groups());
  for (GroupId i = 0; i < p.num_groups(); ++i) {
    const std::span<const RowId> g = p.group(i);
    mix(0xfeedfaceULL);
    mix(g.size());
    for (RowId r : g) mix(r);
  }
  return h;
}

TEST(StreamingAnatomizerTest, GoldenDigestsSurviveResiduePlacementRewrite) {
  // Captured from the seed implementation (linear-scan residue placement,
  // threshold mutation in Finish): the hash-set candidates and the
  // plan-then-commit Finish must consume the rng identically, so the
  // partitions stay byte-for-byte what the seed produced.
  {
    StreamingAnatomizer s(
        StreamingAnatomizerOptions{.l = 4, .seed = 42, .emit_threshold = 8},
        10);
    for (RowId i = 0; i < 97; ++i) {
      ASSERT_TRUE(s.Add(i, static_cast<Code>((i * 7) % 10)).ok());
    }
    auto p = s.Finish();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(p.value().num_groups(), 24u);
    EXPECT_EQ(PartitionDigest(p.value()), 0x66dd2550205d0f42ULL);
  }
  {
    StreamingAnatomizer s(
        StreamingAnatomizerOptions{.l = 5, .seed = 7, .emit_threshold = 25},
        20);
    RowId next = 0;
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(s.Add(next++, 0).ok());
    for (int i = 0; i < 173; ++i) {
      ASSERT_TRUE(s.Add(next++, static_cast<Code>(1 + i % 19)).ok());
    }
    auto p = s.Finish();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(p.value().num_groups(), 40u);
    EXPECT_EQ(PartitionDigest(p.value()), 0x2cd0a06eae942ea3ULL);
  }
}

TEST(StreamingAnatomizerTest, FinishDrainsBelowEmitThreshold) {
  // The buffer never reaches the emit threshold, but Finish's drain runs
  // with the batch rule (threshold l) and must form the groups itself.
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 4, .seed = 1, .emit_threshold = 100},
      10);
  for (RowId i = 0; i < 8; ++i) {
    ASSERT_TRUE(streaming.Add(i, static_cast<Code>(i % 8)).ok());
  }
  EXPECT_EQ(streaming.emitted_groups(), 0u);
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_EQ(partition.value().num_groups(), 2u);
  EXPECT_TRUE(partition.value().ValidateCover(8).ok());
}

TEST(StreamingAnatomizerTest, FailedFinishIsNonDestructiveAndRetryable) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 2, .seed = 1, .emit_threshold = 2}, 4);
  ASSERT_TRUE(streaming.Add(0, 0).ok());
  ASSERT_TRUE(streaming.Add(1, 1).ok());
  ASSERT_EQ(streaming.emitted_groups(), 1u);  // group {0,1}, values {0,1}
  // Row 2 carries value 0, which the only group already contains: Finish
  // must fail, report the one stranded tuple, and leave the streamer intact.
  ASSERT_TRUE(streaming.Add(2, 0).ok());
  auto failed = streaming.Finish();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(failed.status().message().find("1 of 1"), std::string::npos)
      << failed.status().message();
  EXPECT_EQ(streaming.buffered(), 1u);
  EXPECT_EQ(streaming.emitted_groups(), 1u);

  // The stream is still open: more tuples arrive, and the retry succeeds.
  ASSERT_TRUE(streaming.Add(3, 2).ok());
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(partition.value().ValidateCover(4).ok());
  EXPECT_EQ(streaming.buffered(), 0u);
}

TEST(StreamingAnatomizerTest, FinishAmendsFlushedGroupsOnlyAsLastResort) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 2, .seed = 3, .emit_threshold = 2}, 4);
  ASSERT_TRUE(streaming.Add(0, 0).ok());
  ASSERT_TRUE(streaming.Add(1, 1).ok());  // group 0: values {0, 1}
  ASSERT_TRUE(streaming.Add(2, 2).ok());
  ASSERT_TRUE(streaming.Add(3, 3).ok());  // group 1: values {2, 3}
  ASSERT_EQ(streaming.emitted_groups(), 2u);

  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  auto window = streaming.FlushWindow(&disk, &pool);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(streaming.flushed_groups(), 2u);

  // Row 4 (value 0) arrives after the checkpoint. No unflushed group exists,
  // so the placement must amend the one flushed group lacking value 0 —
  // group 1 — and report it.
  ASSERT_TRUE(streaming.Add(4, 0).ok());
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  ASSERT_EQ(streaming.flushed_amendments().size(), 1u);
  const FlushedAmendment& amendment = streaming.flushed_amendments()[0];
  EXPECT_EQ(amendment.group, 1u);
  EXPECT_EQ(amendment.row, 4u);
  EXPECT_EQ(amendment.value, 0);
  EXPECT_TRUE(std::ranges::equal(partition.value().group(1),
                                 std::vector<RowId>{2, 3, 4}));

  // The final delta window carries exactly the amendment record (no
  // unflushed groups remain).
  auto final_window = streaming.FlushFinal(&disk, &pool);
  ASSERT_TRUE(final_window.ok()) << final_window.status().ToString();
  EXPECT_EQ(final_window.value()->num_records(), 1u);
  RecordReader reader(&pool, final_window.value().get());
  std::vector<int32_t> rec(3);
  auto more = reader.Next(rec);
  ASSERT_TRUE(more.ok() && more.value());
  EXPECT_EQ(rec, (std::vector<int32_t>{1, 4, 0}));

  ASSERT_TRUE(window.value()->FreeAll(&pool).ok());
  ASSERT_TRUE(final_window.value()->FreeAll(&pool).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(StreamingAnatomizerTest, DisallowingAmendmentsFailsPrecisely) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 2,
                                 .seed = 3,
                                 .emit_threshold = 2,
                                 .allow_flushed_amendments = false},
      4);
  ASSERT_TRUE(streaming.Add(0, 0).ok());
  ASSERT_TRUE(streaming.Add(1, 1).ok());
  ASSERT_TRUE(streaming.Add(2, 2).ok());
  ASSERT_TRUE(streaming.Add(3, 3).ok());
  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  auto window = streaming.FlushWindow(&disk, &pool);
  ASSERT_TRUE(window.ok());

  ASSERT_TRUE(streaming.Add(4, 0).ok());
  auto failed = streaming.Finish();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(failed.status().message().find("allow_flushed_amendments"),
            std::string::npos)
      << failed.status().message();
  // Non-destructive here too.
  EXPECT_EQ(streaming.buffered(), 1u);
  EXPECT_EQ(streaming.emitted_groups(), 2u);
  ASSERT_TRUE(window.value()->FreeAll(&pool).ok());
}

TEST(StreamingAnatomizerTest, FlushWindowRejectsIdsBeyondInt32) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 2, .seed = 1, .emit_threshold = 2}, 4);
  // Row ids above INT32_MAX cannot be represented in the 3-column int32
  // record format; the flush must refuse rather than silently truncate.
  ASSERT_TRUE(streaming.Add(0x80000000u, 0).ok());
  ASSERT_TRUE(streaming.Add(0x80000001u, 1).ok());
  ASSERT_EQ(streaming.emitted_groups(), 1u);
  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  auto flush = streaming.FlushWindow(&disk, &pool);
  ASSERT_FALSE(flush.ok());
  EXPECT_EQ(flush.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.live_pages(), 0u);  // nothing was written
}

/// Replays [group_id, row_id, sensitive] record files into a partition-like
/// row multiset per group.
void ReplayInto(BufferPool* pool, RecordFile* file,
                std::map<int32_t, std::multiset<int32_t>>& groups) {
  RecordReader reader(pool, file);
  std::vector<int32_t> rec(3);
  for (;;) {
    auto more = reader.Next(rec);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    groups[rec[0]].insert(rec[1]);
  }
}

TEST(StreamingAnatomizerTest, ReplayOfWindowsPlusFinalRebuildsPartition) {
  // Interleave Adds with periodic FlushWindow checkpoints, Finish, then
  // FlushFinal: replaying every record file must reconstruct exactly the
  // partition Finish returned.
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 4, .seed = 11, .emit_threshold = 12},
      12);
  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  std::vector<std::unique_ptr<RecordFile>> files;
  const RowId n = 257;
  for (RowId i = 0; i < n; ++i) {
    ASSERT_TRUE(streaming.Add(i, static_cast<Code>((i * 5) % 12)).ok());
    if (i % 64 == 63) {
      auto window = streaming.FlushWindow(&disk, &pool);
      ASSERT_TRUE(window.ok()) << window.status().ToString();
      files.push_back(std::move(window).value());
    }
  }
  ASSERT_GT(streaming.flushed_groups(), 0u);
  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  auto final_window = streaming.FlushFinal(&disk, &pool);
  ASSERT_TRUE(final_window.ok()) << final_window.status().ToString();
  files.push_back(std::move(final_window).value());

  std::map<int32_t, std::multiset<int32_t>> replayed;
  for (auto& file : files) {
    ReplayInto(&pool, file.get(), replayed);
  }
  const Partition& p = partition.value();
  ASSERT_EQ(replayed.size(), p.num_groups());
  for (GroupId g = 0; g < p.num_groups(); ++g) {
    std::multiset<int32_t> expected(p.group(g).begin(), p.group(g).end());
    EXPECT_EQ(replayed[static_cast<int32_t>(g)], expected) << "group " << g;
  }

  for (auto& file : files) ASSERT_TRUE(file->FreeAll(&pool).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(StreamingAnatomizerTest, PropertySweepLDiversityAndFlushConsistency) {
  // Grid over privacy level, emit threshold, seed, and domain skew, with
  // periodic mid-stream flushes. Every configuration must either publish a
  // partition that is l-diverse and replay-consistent, or fail with a clean
  // Status (never abort) while leaving the streamer intact.
  size_t finished = 0, failed_cleanly = 0;
  for (int l : {2, 4, 6}) {
    for (size_t threshold_factor : {1u, 2u, 6u}) {
      for (uint64_t seed : {1ULL, 9ULL}) {
        for (int skew = 0; skew < 4; ++skew) {
          const Code domain = 16;
          const size_t threshold = threshold_factor * static_cast<size_t>(l);
          StreamingAnatomizer streaming(
              StreamingAnatomizerOptions{
                  .l = l, .seed = seed, .emit_threshold = threshold},
              domain);
          SimulatedDisk disk;
          BufferPool pool(&disk, 8);
          std::vector<std::unique_ptr<RecordFile>> files;

          // Skew 0: balanced round-robin. Skew 1: adversarial head (one hot
          // value first). Skew 2: geometric-ish decay via squaring.
          const RowId n = 300;
          std::vector<std::pair<RowId, Code>> stream;
          for (RowId i = 0; i < n; ++i) {
            Code v = 0;
            if (skew == 0) {
              v = static_cast<Code>(i % domain);
            } else if (skew == 1) {
              v = i < n / 8 ? 0 : static_cast<Code>(1 + i % (domain - 1));
            } else if (skew == 2) {
              v = static_cast<Code>((i * i + i / 3) % domain);
            } else {
              // Degenerate: only 3 distinct values ever arrive, so no group
              // can form for l > 3 and Finish must fail cleanly.
              v = static_cast<Code>(i % 3);
            }
            stream.push_back({i, v});
          }
          for (const auto& [row, value] : stream) {
            ASSERT_TRUE(streaming.Add(row, value).ok());
            if (row % 96 == 95) {
              auto window = streaming.FlushWindow(&disk, &pool);
              ASSERT_TRUE(window.ok()) << window.status().ToString();
              files.push_back(std::move(window).value());
            }
          }

          const size_t buffered_before = streaming.buffered();
          const size_t groups_before = streaming.emitted_groups();
          auto partition = streaming.Finish();
          if (!partition.ok()) {
            // Clean failure: precise code, untouched streamer.
            EXPECT_EQ(partition.status().code(),
                      StatusCode::kFailedPrecondition);
            EXPECT_EQ(streaming.buffered(), buffered_before);
            EXPECT_EQ(streaming.emitted_groups(), groups_before);
            ++failed_cleanly;
          } else {
            ++finished;
            const Partition& p = partition.value();
            ASSERT_TRUE(p.ValidateCover(n).ok());
            // l-diversity via the privacy layer on the built publication.
            std::vector<std::pair<Code, Code>> rows;
            for (const auto& [row, value] : stream) {
              rows.push_back({static_cast<Code>(row % 50), value});
            }
            const Microdata md =
                testing_util::MakeSimpleMicrodata(rows, 50, domain);
            auto tables = AnatomizedTables::Build(md, p);
            ASSERT_TRUE(tables.ok()) << tables.status().ToString();
            EXPECT_TRUE(VerifyAnatomizedLDiversity(tables.value(), l).ok())
                << "l=" << l << " threshold=" << threshold
                << " seed=" << seed << " skew=" << skew;

            // Flush/finish consistency: replay reconstructs the partition.
            auto final_window = streaming.FlushFinal(&disk, &pool);
            ASSERT_TRUE(final_window.ok())
                << final_window.status().ToString();
            files.push_back(std::move(final_window).value());
            std::map<int32_t, std::multiset<int32_t>> replayed;
            for (auto& file : files) {
              ReplayInto(&pool, file.get(), replayed);
            }
            ASSERT_EQ(replayed.size(), p.num_groups());
            for (GroupId g = 0; g < p.num_groups(); ++g) {
              std::multiset<int32_t> expected(p.group(g).begin(),
                                              p.group(g).end());
              EXPECT_EQ(replayed[static_cast<int32_t>(g)], expected);
            }
          }
          for (auto& file : files) ASSERT_TRUE(file->FreeAll(&pool).ok());
          EXPECT_EQ(disk.live_pages(), 0u);
        }
      }
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(finished, 0u);
  EXPECT_GT(failed_cleanly, 0u);
}

// -------------------------------------------------------- external join --

TEST(StreamingAnatomizerTest, FlushWindowWritesEmittedGroups) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 4, .seed = 1, .emit_threshold = 8},
      /*sensitive_domain=*/10);
  for (RowId i = 0; i < 64; ++i) {
    ASSERT_TRUE(streaming.Add(i, static_cast<Code>(i % 10)).ok());
  }
  ASSERT_GT(streaming.emitted_groups(), 0u);

  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  auto window = streaming.FlushWindow(&disk, &pool);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(streaming.flushed_groups(), streaming.emitted_groups());
  // Each emitted group contributes l = 4 records of [group_id, row, value].
  EXPECT_EQ(window.value()->num_records(), 4 * streaming.emitted_groups());

  // A second flush with no new groups is an empty window.
  auto empty = streaming.FlushWindow(&disk, &pool);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value()->num_records(), 0u);

  ASSERT_TRUE(window.value()->FreeAll(&pool).ok());
  ASSERT_TRUE(empty.value()->FreeAll(&pool).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(StreamingAnatomizerTest, FlushWindowSurvivesMidStreamFault) {
  StreamingAnatomizer streaming(
      StreamingAnatomizerOptions{.l = 4, .seed = 7, .emit_threshold = 8},
      /*sensitive_domain=*/10);
  RowId next_row = 0;
  for (; next_row < 64; ++next_row) {
    ASSERT_TRUE(streaming.Add(next_row, static_cast<Code>(next_row % 10)).ok());
  }
  const size_t emitted_before = streaming.emitted_groups();
  ASSERT_GT(emitted_before, 0u);

  // A disk that refuses every write: the flush must fail with a clean
  // Status (never abort), reclaim its partial file, and leave the streamer
  // fully usable.
  SimulatedDisk base;
  FaultSpec spec;
  spec.write_transient_rate = 1.0;  // permanent: retries cannot absorb it
  FaultInjectingDisk faulty(&base, spec);
  BufferPool pool(&faulty, 8);
  const size_t live_before = base.live_pages();
  auto failed = streaming.FlushWindow(&faulty, &pool);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(base.live_pages(), live_before);     // partial window reclaimed
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(streaming.flushed_groups(), 0u);     // cursor did not advance

  // The streamer keeps accepting tuples after the fault...
  for (; next_row < 96; ++next_row) {
    ASSERT_TRUE(streaming.Add(next_row, static_cast<Code>(next_row % 10)).ok());
  }
  EXPECT_GE(streaming.emitted_groups(), emitted_before);

  // ...and the identical window flushes cleanly once the device heals.
  faulty.Heal();
  auto window = streaming.FlushWindow(&faulty, &pool);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(streaming.flushed_groups(), streaming.emitted_groups());
  EXPECT_EQ(window.value()->num_records(), 4 * streaming.emitted_groups());
  ASSERT_TRUE(window.value()->FreeAll(&pool).ok());

  auto partition = streaming.Finish();
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  EXPECT_TRUE(partition.value().ValidateCover(96).ok());
}

TEST(ExternalJoinTest, MatchesInMemoryJoin) {
  const Microdata md = HospitalExample();
  Partition p = MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  auto tables = AnatomizedTables::Build(md, p);
  ASSERT_TRUE(tables.ok());
  const Table expected = JoinQitSt(tables.value());

  SimulatedDisk disk;
  BufferPool pool(&disk, 8);
  auto result = ExternalJoinQitSt(tables.value(), &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().records, expected.num_rows());
  EXPECT_GT(result.value().io.total(), 0u);

  // Collect the join records and compare as multisets (the external join
  // orders by group, the in-memory one by QIT row).
  std::multiset<std::vector<int32_t>> expected_set;
  for (RowId r = 0; r < expected.num_rows(); ++r) {
    std::vector<Code> row;
    expected.GetRow(r, row);
    expected_set.insert(std::vector<int32_t>(row.begin(), row.end()));
  }
  std::multiset<std::vector<int32_t>> actual_set;
  RecordReader reader(&pool, result.value().joined.get());
  std::vector<int32_t> rec(result.value().joined->fields_per_record());
  for (;;) {
    auto more = reader.Next(rec);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    actual_set.insert(rec);
  }
  EXPECT_EQ(actual_set, expected_set);
  ASSERT_TRUE(result.value().joined->FreeAll(&pool).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(ExternalJoinTest, ScalesOnCensus) {
  const Table census = GenerateCensus(20000, 3);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 5);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  Anatomizer anatomizer(AnatomizerOptions{.l = 10, .seed = 6});
  auto partition = anatomizer.ComputePartition(md);
  ASSERT_TRUE(partition.ok());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ASSERT_TRUE(tables.ok());

  SimulatedDisk disk;
  BufferPool pool(&disk, 50);
  auto result = ExternalJoinQitSt(tables.value(), &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Anatomize groups have l distinct values each, so the join has n * l
  // records (every tuple joins its group's l ST records).
  EXPECT_EQ(result.value().records, static_cast<uint64_t>(md.n()) * 10);
  ASSERT_TRUE(result.value().joined->FreeAll(&pool).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

}  // namespace
}  // namespace anatomy
