// Fault-sweep harness for the storage fault-injection layer: deterministic
// schedules, checksum detection, retry absorption, abort-path cleanliness,
// crash-consistent publication, and the acceptance sweep over fault rates ×
// seeds (every pipeline run either succeeds bit-identically to the fault-free
// run or fails with a clean Status — never an abort, a leaked page, or a
// pinned frame).

#include <gtest/gtest.h>

#include <vector>

#include "anatomy/external_anatomizer.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "generalization/external_mondrian.h"
#include "storage/external_sort.h"
#include "storage/fault_injection.h"
#include "storage/publication.h"
#include "storage/recovery.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace anatomy {
namespace {

using testing_util::MakeRoundRobinMicrodata;
using testing_util::ReadPublishedRecords;

// ------------------------------------------------------------ schedules --

TEST(FaultInjectionTest, ScheduleIsDeterministic) {
  FaultSpec spec;
  spec.seed = 42;
  spec.read_transient_rate = 0.2;
  spec.write_transient_rate = 0.2;
  spec.torn_write_rate = 0.1;
  spec.bit_flip_rate = 0.1;

  auto run_schedule = [&](FaultStats* out) {
    SimulatedDisk base;
    FaultInjectingDisk disk(&base, spec);
    std::vector<PageId> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(disk.AllocatePage());
    Page page;
    for (int round = 0; round < 8; ++round) {
      for (PageId id : ids) {
        page.WriteInt32(0, static_cast<int32_t>(id + round));
        (void)disk.WritePage(id, page);
        Page out_page;
        (void)disk.ReadPage(id, out_page);
      }
    }
    *out = disk.fault_stats();
  };

  FaultStats a, b;
  run_schedule(&a);
  run_schedule(&b);
  EXPECT_EQ(a.read_transients, b.read_transients);
  EXPECT_EQ(a.write_transients, b.write_transients);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.bit_flips, b.bit_flips);
  EXPECT_GT(a.read_transients + a.write_transients + a.torn_writes +
                a.bit_flips,
            0u);
}

// ------------------------------------------- checksum corruption detection --

TEST(FaultInjectionTest, BitFlipIsCaughtAtReadTime) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.bit_flip_rate = 1.0;
  FaultInjectingDisk disk(&base, spec);
  const PageId id = disk.AllocatePage();
  Page page;
  page.WriteInt32(0, 99);
  ASSERT_TRUE(disk.WritePage(id, page).ok());  // "succeeds", then rots
  EXPECT_EQ(disk.fault_stats().bit_flips, 1u);
  EXPECT_TRUE(disk.corrupted_pages().count(id));
  Page out;
  EXPECT_EQ(disk.ReadPage(id, out).code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, TornWriteIsCaughtAtReadTime) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.torn_write_rate = 1.0;
  FaultInjectingDisk disk(&base, spec);
  const PageId id = disk.AllocatePage();
  // Give the old content distinct bytes so the torn suffix cannot coincide.
  Page first;
  for (size_t i = 0; i < kPageSize / 4; ++i) {
    first.WriteInt32(4 * i, 0x5A5A5A5A);
  }
  {
    // Seed the stored page via the base (no fault) so the tear has a stale
    // suffix to expose.
    ASSERT_TRUE(base.WritePage(id, first).ok());
  }
  Page second;
  for (size_t i = 0; i < kPageSize / 4; ++i) {
    second.WriteInt32(4 * i, static_cast<int32_t>(i));
  }
  ASSERT_TRUE(disk.WritePage(id, second).ok());  // torn, but looks OK
  EXPECT_EQ(disk.fault_stats().torn_writes, 1u);
  EXPECT_TRUE(disk.corrupted_pages().count(id));
  Page out;
  EXPECT_EQ(disk.ReadPage(id, out).code(), StatusCode::kDataLoss);
}

// -------------------------------------------------------------- ResetStats --

TEST(FaultInjectionTest, ResetStatsZeroesFaultCountersToo) {
  // Regression: ResetStats used to forward to the base disk only, leaving
  // the decorator's own FaultStats accumulating across runs.
  SimulatedDisk base;
  FaultSpec spec;
  spec.seed = 7;
  spec.bit_flip_rate = 1.0;
  FaultInjectingDisk disk(&base, spec);
  const PageId id = disk.AllocatePage();
  Page page;
  page.WriteInt32(0, 1);
  ASSERT_TRUE(disk.WritePage(id, page).ok());  // "succeeds", then rots
  ASSERT_EQ(disk.fault_stats().bit_flips, 1u);
  ASSERT_EQ(disk.fault_stats().writes_observed, 1u);
  ASSERT_GT(disk.stats().writes, 0u);

  disk.ResetStats();
  EXPECT_EQ(disk.stats().reads, 0u);
  EXPECT_EQ(disk.stats().writes, 0u);
  EXPECT_EQ(disk.fault_stats().bit_flips, 0u);
  EXPECT_EQ(disk.fault_stats().writes_observed, 0u);
  EXPECT_FALSE(disk.fault_stats().crashed);
}

TEST(FaultInjectionTest, ResetStatsPreservesCrashStateAndPlacement) {
  // Crash after the 3rd successful write. A mid-run ResetStats must neither
  // move the crash point (placement counts from construction) nor heal a
  // crashed device (only Heal() does).
  SimulatedDisk base;
  FaultSpec spec;
  spec.crash_after_writes = 3;
  FaultInjectingDisk disk(&base, spec);
  const PageId id = disk.AllocatePage();
  Page page;
  page.WriteInt32(0, 1);
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  disk.ResetStats();
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  ASSERT_TRUE(disk.WritePage(id, page).ok());  // 3rd write since construction
  EXPECT_TRUE(disk.fault_stats().crashed);
  EXPECT_EQ(disk.WritePage(id, page).code(), StatusCode::kUnavailable);

  disk.ResetStats();
  EXPECT_TRUE(disk.fault_stats().crashed);
  Page out;
  EXPECT_EQ(disk.ReadPage(id, out).code(), StatusCode::kUnavailable);
  disk.Heal();
  EXPECT_FALSE(disk.fault_stats().crashed);
  EXPECT_TRUE(disk.ReadPage(id, out).ok());
}

// ---------------------------------------------------------------- retries --

TEST(FaultInjectionTest, RunWithRetryAbsorbsTransients) {
  int failures_left = 2;
  uint64_t retries = 0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  Status status = RunWithRetry(policy, &retries, [&] {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("flaky");
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(retries, 2u);
}

TEST(FaultInjectionTest, RunWithRetryStopsOnPermanentFailure) {
  uint64_t retries = 0;
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 4;
  Status status = RunWithRetry(policy, &retries, [&] {
    ++calls;
    return Status::DataLoss("rotten");
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);  // permanent failures are not retried
  EXPECT_EQ(retries, 0u);
}

TEST(FaultInjectionTest, PoolAbsorbsTransientReadFaults) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.seed = 3;
  spec.read_transient_rate = 0.4;
  FaultInjectingDisk disk(&base, spec);
  BufferPool pool(&disk, 4);
  RetryPolicy generous;
  generous.max_attempts = 16;  // p^16 ~ 4e-7: misses are effectively gone
  pool.set_retry_policy(generous);
  const PageId id = disk.AllocatePage();
  Page page;
  page.WriteInt32(0, 7);
  ASSERT_TRUE(base.WritePage(id, page).ok());

  // With p = 0.4 every cold read has a ~40% chance of needing a retry, so
  // across 64 of them retries must fire; with 16 attempts they always win.
  bool all_ok = true;
  for (int i = 0; i < 64; ++i) {
    auto pinned = pool.Pin(id);
    if (!pinned.ok()) {
      all_ok = false;
      break;
    }
    EXPECT_EQ((*pinned.value()).ReadInt32(0), 7);
    ASSERT_TRUE(pool.Unpin(id, false).ok());
    ASSERT_TRUE(pool.FlushAll().ok());  // force the next Pin to re-read
  }
  EXPECT_TRUE(all_ok);
  EXPECT_GT(pool.io_retries(), 0u);
}

TEST(FaultInjectionTest, PermanentUnavailabilitySurfacesCleanly) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.read_transient_rate = 1.0;
  FaultInjectingDisk disk(&base, spec);
  BufferPool pool(&disk, 4);
  const PageId id = disk.AllocatePage();
  Page page;
  ASSERT_TRUE(base.WritePage(id, page).ok());

  auto pinned = pool.Pin(id);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.pinned_frames(), 0u);  // the failed Pin took no pin
  EXPECT_EQ(pool.frames_in_use(), 0u);
}

TEST(FaultInjectionTest, EvictionWriteFailureLeavesPoolConsistent) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.write_transient_rate = 1.0;
  FaultInjectingDisk disk(&base, spec);
  BufferPool pool(&disk, 2);

  PageId a = kInvalidPageId, b = kInvalidPageId, c = kInvalidPageId;
  ASSERT_TRUE(pool.PinNew(&a).ok());
  ASSERT_TRUE(pool.Unpin(a, /*dirty=*/true).ok());
  ASSERT_TRUE(pool.PinNew(&b).ok());
  ASSERT_TRUE(pool.Unpin(b, /*dirty=*/true).ok());

  // The pool is full of dirty frames and every write-back fails: pinning a
  // third page must fail with kUnavailable, not abort, and leave the pool
  // intact and retryable.
  auto third = pool.PinNew(&c);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.frames_in_use(), 2u);  // victims still cached, still dirty

  disk.Heal();
  auto retry = pool.PinNew(&c);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_TRUE(pool.Unpin(c, false).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
}

// --------------------------------------------------------- acceptance sweep --

struct BaselineRun {
  Partition partition;
  std::vector<std::vector<int32_t>> qit;
  std::vector<std::vector<int32_t>> st;
};

BaselineRun RunFaultFreeBaseline(const Microdata& md, int l,
                                 size_t pool_pages) {
  SimulatedDisk disk;
  BufferPool pool(&disk, pool_pages);
  ExternalAnatomizer anatomizer(AnatomizerOptions{l});
  auto result = anatomizer.RunPublished(md, &disk, &pool);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  BaselineRun baseline;
  baseline.partition = result.value().partition;
  auto qit = ReadPublishedRecords(&disk, result.value().manifest.qit);
  auto st = ReadPublishedRecords(&disk, result.value().manifest.st);
  EXPECT_TRUE(qit.ok());
  EXPECT_TRUE(st.ok());
  baseline.qit = qit.value();
  baseline.st = st.value();
  EXPECT_TRUE(
      DiscardPublication(&disk, &pool, result.value().manifest).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
  return baseline;
}

TEST(FaultSweepTest, EverySweepRunSucceedsIdenticallyOrFailsCleanly) {
  const Microdata md = MakeRoundRobinMicrodata(5000, /*qi_domain=*/64,
                                               /*sens_domain=*/16);
  const int l = 8;
  const size_t pool_pages = 12;  // small pool: more eviction traffic
  const BaselineRun baseline = RunFaultFreeBaseline(md, l, pool_pages);

  const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};
  size_t successes = 0;
  size_t failures = 0;
  for (double rate : rates) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("rate=" + std::to_string(rate) +
                   " seed=" + std::to_string(seed));
      SimulatedDisk base;
      FaultSpec spec;
      spec.seed = seed;
      spec.read_transient_rate = rate;
      spec.write_transient_rate = rate;
      spec.torn_write_rate = rate;
      spec.bit_flip_rate = rate;
      FaultInjectingDisk disk(&base, spec);
      BufferPool pool(&disk, pool_pages);
      ExternalAnatomizer anatomizer(AnatomizerOptions{l});

      auto result = anatomizer.RunPublished(md, &disk, &pool);
      EXPECT_EQ(pool.pinned_frames(), 0u);
      if (result.ok()) {
        ++successes;
        // Success must be bit-identical to the fault-free run.
        EXPECT_EQ(result.value().partition, baseline.partition);
        auto qit = ReadPublishedRecords(&disk, result.value().manifest.qit);
        auto st = ReadPublishedRecords(&disk, result.value().manifest.st);
        ASSERT_TRUE(qit.ok()) << qit.status().ToString();
        ASSERT_TRUE(st.ok()) << st.status().ToString();
        EXPECT_EQ(qit.value(), baseline.qit);
        EXPECT_EQ(st.value(), baseline.st);
        EXPECT_TRUE(
            VerifyPublication(&disk, result.value().manifest).ok());
        ASSERT_TRUE(
            DiscardPublication(&disk, &pool, result.value().manifest).ok());
      } else {
        ++failures;
        // Failure must be clean: a real Status, no leaked pages anywhere.
        EXPECT_FALSE(result.status().message().empty());
      }
      EXPECT_EQ(base.live_pages(), 0u);
    }
  }
  // Rate 0 always succeeds; the higher rates must have exercised the error
  // path at least once (1e-2 over ~10^2 I/Os practically guarantees it).
  EXPECT_GE(successes, 8u);
  EXPECT_GT(failures, 0u);
}

TEST(FaultSweepTest, VerifyPublicationDetectsEveryInjectedCorruption) {
  const Microdata md = MakeRoundRobinMicrodata(3000, 64, 16);
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  ExternalAnatomizer anatomizer(AnatomizerOptions{8});
  auto result = anatomizer.RunPublished(md, &disk, &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StorageManifest& manifest = result.value().manifest;

  std::vector<PageId> published = manifest.qit.pages;
  published.insert(published.end(), manifest.st.pages.begin(),
                   manifest.st.pages.end());
  published.insert(published.end(), manifest.manifest_pages.begin(),
                   manifest.manifest_pages.end());
  ASSERT_FALSE(published.empty());

  for (PageId id : published) {
    SCOPED_TRACE("page=" + std::to_string(id));
    Page saved;
    ASSERT_TRUE(disk.ReadPage(id, saved).ok());
    disk.CorruptStoredPage(id, /*offset=*/id % kPageSize, /*mask=*/0x40);
    const Status audit = VerifyPublication(&disk, manifest);
    EXPECT_EQ(audit.code(), StatusCode::kDataLoss);
    ASSERT_TRUE(disk.WritePage(id, saved).ok());  // restore
  }
  EXPECT_TRUE(VerifyPublication(&disk, manifest).ok());
  ASSERT_TRUE(DiscardPublication(&disk, &pool, manifest).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(FaultSweepTest, CrashLeavesNoHalfPublication) {
  const Microdata md = MakeRoundRobinMicrodata(3000, 64, 16);
  const int l = 8;
  const BaselineRun baseline = RunFaultFreeBaseline(md, l, 16);

  for (uint64_t crash_after : {1u, 7u, 25u, 60u, 120u, 250u}) {
    SCOPED_TRACE("crash_after_writes=" + std::to_string(crash_after));
    SimulatedDisk base;
    FaultSpec spec;
    spec.crash_after_writes = crash_after;
    FaultInjectingDisk disk(&base, spec);
    BufferPool pool(&disk, 16);
    ExternalAnatomizer anatomizer(AnatomizerOptions{l});

    auto crashed = anatomizer.RunPublished(md, &disk, &pool);
    if (crashed.ok()) {
      // The run finished before the crash point; fine, clean up.
      ASSERT_TRUE(
          DiscardPublication(&disk, &pool, crashed.value().manifest).ok());
      EXPECT_EQ(base.live_pages(), 0u);
      continue;
    }
    // The crash must leave the publication cleanly absent: no orphan pages,
    // nothing pinned — as if the run never happened.
    EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(base.live_pages(), 0u);
    EXPECT_EQ(pool.pinned_frames(), 0u);

    // After the device heals, the identical publication commits.
    disk.Heal();
    auto retried = anatomizer.RunPublished(md, &disk, &pool);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(retried.value().partition, baseline.partition);
    auto qit = ReadPublishedRecords(&disk, retried.value().manifest.qit);
    ASSERT_TRUE(qit.ok());
    EXPECT_EQ(qit.value(), baseline.qit);
    ASSERT_TRUE(
        DiscardPublication(&disk, &pool, retried.value().manifest).ok());
    EXPECT_EQ(base.live_pages(), 0u);
  }
}

// --------------------------------------- other pipelines under fault load --

TEST(FaultSweepTest, ExternalMondrianFailsCleanlyUnderFaults) {
  const Table census = GenerateCensus(3000, 5);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, 3);
  ASSERT_TRUE(dataset.ok());
  const Microdata& md = dataset.value().microdata;
  const TaxonomySet& taxonomies = dataset.value().taxonomies;

  // Fault-free reference partition.
  Partition reference;
  {
    SimulatedDisk disk;
    BufferPool pool(&disk, 16);
    ExternalMondrian mondrian(MondrianOptions{4});
    auto result = mondrian.Run(md, taxonomies, &disk, &pool);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference = result.value().partition;
    EXPECT_EQ(disk.live_pages(), 0u);
  }

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimulatedDisk base;
    FaultSpec spec;
    spec.seed = seed;
    spec.torn_write_rate = 5e-3;
    spec.bit_flip_rate = 5e-3;
    spec.read_transient_rate = 5e-3;
    FaultInjectingDisk disk(&base, spec);
    BufferPool pool(&disk, 16);
    ExternalMondrian mondrian(MondrianOptions{4});
    auto result = mondrian.Run(md, taxonomies, &disk, &pool);
    if (result.ok()) {
      EXPECT_EQ(result.value().partition, reference);
    }
    EXPECT_EQ(base.live_pages(), 0u);
    EXPECT_EQ(pool.pinned_frames(), 0u);
  }
}

TEST(FaultSweepTest, ExternalSortFailsCleanlyUnderFaults) {
  SimulatedDisk base;
  FaultSpec spec;
  spec.seed = 5;
  spec.bit_flip_rate = 0.05;  // aggressive: the sort re-reads every run page
  FaultInjectingDisk disk(&base, spec);
  BufferPool pool(&disk, 8);

  RecordFile input(&disk, 2);
  {
    RecordWriter writer(&pool, &input);
    for (int32_t i = 0; i < 4000; ++i) {
      const int32_t rec[2] = {4000 - i, i};
      ASSERT_TRUE(writer.Append(rec).ok());
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const size_t live_before = base.live_pages();

  SortSpec sort_spec;
  sort_spec.key_fields = {0};
  auto sorted = ExternalSort(&input, sort_spec, &pool);
  if (sorted.ok()) {
    ASSERT_TRUE(sorted.value()->FreeAll(&pool).ok());
    EXPECT_EQ(base.live_pages(), 0u);  // sort frees the input itself
  } else {
    // Clean failure: no run files leaked (at most the caller's input file
    // remains, if the failure hit before the sort consumed it).
    EXPECT_LE(base.live_pages(), live_before);
    EXPECT_EQ(pool.pinned_frames(), 0u);
  }
}

// ------------------------------------------------- stalls / retry knobs --

TEST(FaultInjectionTest, StallInjectionIsDeterministicAndVirtual) {
  FaultSpec spec;
  spec.seed = 77;
  spec.stall_rate = 1.0;  // every op stalls
  spec.stall_scale_us = 200;
  spec.stall_alpha = 1.2;
  spec.stall_cap_us = 5000;

  auto run_schedule = [&](FaultStats* out) {
    SimulatedDisk base;
    FaultInjectingDisk disk(&base, spec);
    Page page;
    std::vector<PageId> ids;
    for (int i = 0; i < 8; ++i) ids.push_back(disk.AllocatePage());
    for (PageId id : ids) {
      page.WriteInt32(0, static_cast<int32_t>(id));
      ASSERT_TRUE(disk.WritePage(id, page).ok());  // stalls never fail ops
      Page out_page;
      ASSERT_TRUE(disk.ReadPage(id, out_page).ok());
    }
    *out = disk.fault_stats();
  };

  FaultStats a, b;
  run_schedule(&a);
  run_schedule(&b);
  // One stall per op (8 writes + 8 reads), with real virtual duration, and
  // the whole heavy-tail schedule replays bit-identically from the seed.
  EXPECT_EQ(a.stalls, 16u);
  EXPECT_GT(a.stall_ns, 0u);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.stall_ns, b.stall_ns);
  // Truncation holds: no single schedule can exceed ops * cap.
  EXPECT_LE(a.stall_ns, 16u * 5000u * 1000u);
}

TEST(FaultInjectionTest, ReArmRebasesTheCrashPoint) {
  SimulatedDisk base;
  FaultInjectingDisk disk(&base, FaultSpec{});  // publish phase: no faults
  Page page;
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(disk.AllocatePage());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(disk.WritePage(ids[static_cast<size_t>(i)], page).ok());
  }

  // Re-arm with a crash 3 successful writes from *now* — the 6 writes above
  // must not count against the new schedule.
  FaultSpec armed;
  armed.seed = 9;
  armed.crash_after_writes = 3;
  disk.ReArm(armed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(disk.WritePage(ids[static_cast<size_t>(i)], page).ok());
  }
  Status crashed = disk.WritePage(ids[3], page);
  EXPECT_FALSE(crashed.ok());
  EXPECT_TRUE(crashed.IsTransient());
  EXPECT_TRUE(disk.fault_stats().crashed);
  Page out_page;
  EXPECT_FALSE(disk.ReadPage(ids[0], out_page).ok());  // reads fail too

  disk.Heal();
  EXPECT_TRUE(disk.ReadPage(ids[0], out_page).ok());
}

TEST(FaultInjectionTest, FullJitterBackoffStaysInsideTheEnvelope) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.backoff_multiplier = 2.0;
  policy.full_jitter = true;
  policy.jitter_seed = 1234;

  Rng rng_a(SplitMix64(policy.jitter_seed));
  Rng rng_b(SplitMix64(policy.jitter_seed));
  bool saw_nonzero = false;
  for (int retry = 0; retry < 8; ++retry) {
    const auto schedule =
        std::chrono::microseconds(static_cast<int64_t>(100 * (1 << retry)));
    const auto a = RetryBackoff(policy, retry, rng_a);
    const auto b = RetryBackoff(policy, retry, rng_b);
    EXPECT_EQ(a, b) << "jitter must replay from the seed";
    EXPECT_GE(a.count(), 0);
    EXPECT_LT(a, schedule) << "full jitter draws from [0, schedule)";
    if (a.count() > 0) saw_nonzero = true;
  }
  EXPECT_TRUE(saw_nonzero);

  // Without jitter the same policy is the deterministic exponential.
  policy.full_jitter = false;
  EXPECT_EQ(RetryBackoff(policy, 3, rng_a).count(), 800);
}

TEST(FaultInjectionTest, MaxElapsedCapsRetriesBeforeTheBackoffBlowsIt) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::milliseconds(10);
  policy.max_elapsed = std::chrono::milliseconds(1);

  int attempts = 0;
  uint64_t retries = 0;
  Status status = RunWithRetry(policy, &retries, [&] {
    ++attempts;
    return Status::Unavailable("still flaky");
  });
  // The first pending 10ms backoff alone would blow the 1ms budget, so the
  // policy stops after a single attempt instead of sleeping past the cap.
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsTransient());
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(retries, 0u);

  // Lifting the cap restores the attempt-bounded behavior.
  policy.initial_backoff = std::chrono::microseconds(0);
  policy.max_elapsed = std::chrono::microseconds(0);
  attempts = 0;
  status = RunWithRetry(policy, &retries, [&] {
    ++attempts;
    return Status::Unavailable("still flaky");
  });
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(retries, 3u);
}

}  // namespace
}  // namespace anatomy
