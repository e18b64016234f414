// Distributed serving tests: scatter-gather bit-identity against the merged
// single-node view, honest partial degradation, deadline propagation,
// hedging, retry recovery, the two-phase epoch swap under coordinator kills,
// and the exhaustive crash-at-every-write-index sweep over the publish
// pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "anatomy/external_anatomizer.h"
#include "dist/chaos.h"
#include "dist/cluster.h"
#include "dist/dist_runner.h"
#include "dist/node.h"
#include "dist/scatter_gather.h"
#include "query/aggregate.h"
#include "query/group_kernels.h"
#include "storage/publication.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

// Reference value for one query: the size-class fold of a row scan over
// the merged tables, restricted to `include_group` when it is non-empty.
double RefValue(const AnatomizedTables& tables, const AggregateQuery& query,
                const std::vector<bool>& include_group = {}) {
  const bool need_sum = query.kind == AggregateKind::kSum;
  const CanonicalFoldResult fold = CanonicalFold(ScanSizeClassPartials(
      tables, query.predicates, need_sum, query.measure_qi, include_group));
  return need_sum ? fold.sum : fold.count;
}

std::vector<PageId> SortedLivePages(DistNode* node) {
  std::vector<PageId> live = node->disk()->LivePages();
  std::sort(live.begin(), live.end());
  return live;
}

std::vector<PageId> SortedOwnedPages(const StorageManifest& m) {
  std::vector<PageId> owned = m.manifest_pages;
  owned.insert(owned.end(), m.qit.pages.begin(), m.qit.pages.end());
  owned.insert(owned.end(), m.st.pages.begin(), m.st.pages.end());
  std::sort(owned.begin(), owned.end());
  return owned;
}

MixedWorkloadGenerator MakeGenerator(const Microdata& md, uint64_t seed,
                                     size_t n) {
  MixedWorkloadOptions wopts;
  wopts.base.seed = seed;
  wopts.base.s = 0.08;
  wopts.base.num_queries = n;
  wopts.sum_fraction = 0.5;
  auto gen = MixedWorkloadGenerator::Create(md, wopts);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();
  return std::move(gen).value();
}

// ------------------------------------------------- zero-fault bit-identity

TEST(DistTest, ScatterGatherBitIdenticalToMergedFoldAcrossN) {
  const Microdata md = MakeChaosMicrodata(1600, 4, 99);
  for (size_t nodes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    DistClusterOptions copts;
    copts.nodes = nodes;
    copts.l = 4;
    copts.seed = 11 + nodes;
    DistCluster cluster(copts);
    auto pub = cluster.PublishEpoch(md);
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    EXPECT_EQ(cluster.epoch(), 1u);
    EXPECT_EQ(cluster.total_rows(), 1600u);

    auto tables_or = cluster.BuildMergedTables();
    ASSERT_TRUE(tables_or.ok()) << tables_or.status().ToString();
    const AnatomizedTables& tables = tables_or.value();
    AnatomyAggregateEstimator agg(tables, EstimatorOptions{});

    ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
    MixedWorkloadGenerator gen = MakeGenerator(md, 5, 40);
    for (int i = 0; i < 40; ++i) {
      const AggregateQuery query = gen.Next();
      const double want = RefValue(tables, query);
      auto r = estimator.Estimate(query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const PartialEstimate& est = r.value();
      EXPECT_TRUE(est.exact);
      EXPECT_EQ(est.covered_mass, 1.0);
      // Bit-identical to the size-class fold over the merged tables.
      EXPECT_EQ(est.value, want);
      EXPECT_EQ(est.lower, est.value);
      EXPECT_EQ(est.upper, est.value);
      // And equal to the production single-node estimator: both fold the
      // same exact size-class partials.
      EXPECT_EQ(est.value, agg.Estimate(query)) << "query " << i;
    }
  }
}

TEST(DistTest, AvgIsRejected) {
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 3;
  DistCluster cluster(copts);
  auto pub = cluster.PublishEpoch(MakeChaosMicrodata(600, 3, 1));
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  AggregateQuery query;
  query.kind = AggregateKind::kAvg;
  auto r = estimator.Estimate(query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistTest, PredicateOnMissingColumnIsInvalidArgument) {
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 3;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(MakeChaosMicrodata(600, 3, 1)).ok());
  ASSERT_EQ(cluster.qi_defs().size(), 3u);
  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  for (size_t column : {3u, 4u, 9u}) {
    for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum}) {
      AggregateQuery query;
      query.kind = kind;
      query.predicates.qi_predicates.push_back(AttributePredicate(0, {0, 1}));
      query.predicates.qi_predicates.push_back(
          AttributePredicate(column, {0}));
      auto r = estimator.Estimate(query);
      ASSERT_FALSE(r.ok()) << "column " << column;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // Refused before any node was attempted: the virtual clock never moved.
  EXPECT_EQ(estimator.virtual_now_ns(), 0u);
  AggregateQuery valid;
  valid.predicates.qi_predicates.push_back(AttributePredicate(2, {0, 1}));
  auto r = estimator.Estimate(valid);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().exact);
}

// --------------------------------------------------- degradation honesty

TEST(DistTest, PartialAnswerIsHonestWhenANodeIsDown) {
  const Microdata md = MakeChaosMicrodata(1200, 4, 17);
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 4;
  copts.seed = 23;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(md).ok());
  ASSERT_NE(cluster.record().nodes[0].root, kInvalidPageId);
  ASSERT_NE(cluster.record().nodes[1].root, kInvalidPageId);

  auto tables_or = cluster.BuildMergedTables();
  ASSERT_TRUE(tables_or.ok());
  const AnatomizedTables& tables = tables_or.value();

  // Node 1 goes dark (permanent: it serves nothing at all).
  cluster.node(1)->Deactivate();

  const GroupId node0_groups = cluster.record().nodes[0].group_count;
  const uint64_t node0_rows = cluster.record().nodes[0].rows;
  std::vector<bool> node0_group(tables.num_groups(), false);
  std::fill(node0_group.begin(), node0_group.begin() + node0_groups, true);
  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  MixedWorkloadGenerator gen = MakeGenerator(md, 29, 20);
  for (int i = 0; i < 20; ++i) {
    const AggregateQuery query = gen.Next();
    auto r = estimator.Estimate(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const PartialEstimate& est = r.value();
    EXPECT_FALSE(est.exact);
    EXPECT_EQ(est.reasons[0], obs::ReasonCode::kOk);
    EXPECT_EQ(est.reasons[1], obs::ReasonCode::kInactiveNode);
    EXPECT_EQ(est.covered_rows, node0_rows);
    EXPECT_EQ(est.covered_mass, static_cast<double>(node0_rows) /
                                    static_cast<double>(cluster.total_rows()));

    // The value is the exact fold over precisely node 0's groups.
    EXPECT_EQ(est.value, RefValue(tables, query, node0_group));

    // The declared bounds contain the true full-fleet answer.
    const double truth = RefValue(tables, query);
    const double tol = 1e-9 * (1.0 + std::abs(truth));
    EXPECT_GE(truth, est.lower - tol);
    EXPECT_LE(truth, est.upper + tol);
  }
}

TEST(DistTest, AllNodesLateYieldsCleanUnavailable) {
  DistClusterOptions copts;
  copts.nodes = 1;
  copts.l = 3;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(MakeChaosMicrodata(600, 3, 3)).ok());

  // Every probe stalls for >= 20ms against a 5ms deadline: the node's own
  // deadline propagation kicks in (late, compute skipped) and the
  // coordinator returns a clean error, never a number.
  FaultSpec spec;
  spec.seed = 7;
  spec.stall_rate = 1.0;
  spec.stall_scale_us = 20'000.0;
  spec.stall_alpha = 2.0;
  cluster.node(0)->fault_disk()->ReArm(spec);

  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  const Microdata md = MakeChaosMicrodata(600, 3, 3);
  MixedWorkloadGenerator gen = MakeGenerator(md, 31, 5);
  for (int i = 0; i < 5; ++i) {
    auto r = estimator.Estimate(gen.Next());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
}

// ----------------------------------------------------- hedging and retries

TEST(DistTest, HedgesFireUnderStallsAndAnswersStayExact) {
  const Microdata md = MakeChaosMicrodata(1200, 4, 41);
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 4;
  copts.seed = 43;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(md).ok());

  auto tables_or = cluster.BuildMergedTables();
  ASSERT_TRUE(tables_or.ok());
  const AnatomizedTables& tables = tables_or.value();

  // Stalls are frequent and slow but always finish inside the deadline
  // (cap 3.5ms + base + jitter < 5ms), so every query still gets an exact
  // answer; the stalls only make hedges fire.
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    FaultSpec spec;
    spec.seed = 100 + i;
    spec.stall_rate = 0.45;
    spec.stall_scale_us = 1200.0;
    spec.stall_alpha = 1.3;
    spec.stall_cap_us = 3'500.0;
    cluster.node(i)->fault_disk()->ReArm(spec);
  }

  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  MixedWorkloadGenerator gen = MakeGenerator(md, 47, 60);
  uint64_t hedges = 0;
  for (int i = 0; i < 60; ++i) {
    const AggregateQuery query = gen.Next();
    const double want = RefValue(tables, query);
    auto r = estimator.Estimate(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().exact);
    EXPECT_EQ(r.value().value, want);
    hedges += r.value().hedges;
  }
  EXPECT_GT(hedges, 0u);
}

TEST(DistTest, TransientFaultsAreRetriedAway) {
  const Microdata md = MakeChaosMicrodata(1200, 4, 53);
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 4;
  copts.seed = 59;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(md).ok());

  auto tables_or = cluster.BuildMergedTables();
  ASSERT_TRUE(tables_or.ok());
  const AnatomizedTables& tables = tables_or.value();

  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    FaultSpec spec;
    spec.seed = 200 + i;
    spec.read_transient_rate = 0.35;
    cluster.node(i)->fault_disk()->ReArm(spec);
  }

  ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
  MixedWorkloadGenerator gen = MakeGenerator(md, 61, 40);
  uint64_t retries = 0;
  size_t exact = 0;
  for (int i = 0; i < 40; ++i) {
    const AggregateQuery query = gen.Next();
    const double want = RefValue(tables, query);
    auto r = estimator.Estimate(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    retries += r.value().retries;
    if (r.value().exact) {
      ++exact;
      EXPECT_EQ(r.value().value, want);
    } else {
      // A node that exhausted its attempts degrades honestly.
      EXPECT_GT(r.value().covered_mass, 0.0);
      EXPECT_LT(r.value().covered_mass, 1.0);
    }
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(exact, 0u);
}

// ---------------------------------- sequential ladder, concurrent compute

std::unique_ptr<DistCluster> PublishedCluster(const Microdata& md,
                                              bool faults) {
  DistClusterOptions copts;
  copts.nodes = 4;
  copts.l = 4;
  copts.seed = 131;
  auto cluster = std::make_unique<DistCluster>(copts);
  EXPECT_TRUE(cluster->PublishEpoch(md).ok());
  for (size_t i = 0; faults && i < cluster->num_nodes(); ++i) {
    // Stalls that make hedges fire but end inside the deadline, and
    // transients that cost retries and now and then a whole node.
    FaultSpec spec;
    spec.seed = 300 + i;
    spec.stall_rate = 0.4;
    spec.stall_scale_us = 1200.0;
    spec.stall_alpha = 1.3;
    spec.stall_cap_us = 3'500.0;
    spec.read_transient_rate = 0.2;
    cluster->node(i)->fault_disk()->ReArm(spec);
  }
  return cluster;
}

TEST(DistTest, ConcurrentComputeMatchesSequentialServeAndReplays) {
  const Microdata md = MakeChaosMicrodata(2400, 4, 127);
  // a and b are identical, faults included; c serves the sequential
  // reference without faults.
  std::unique_ptr<DistCluster> a = PublishedCluster(md, /*faults=*/true);
  std::unique_ptr<DistCluster> b = PublishedCluster(md, /*faults=*/true);
  std::unique_ptr<DistCluster> c = PublishedCluster(md, /*faults=*/false);
  ScatterGatherEstimator ea(a.get(), DistQueryOptions{});
  ScatterGatherEstimator eb(b.get(), DistQueryOptions{});
  Rng rng(139);
  MixedWorkloadGenerator gen = MakeGenerator(md, 137, 50);
  uint64_t hedges = 0;
  uint64_t retries = 0;
  for (int q = 0; q < 50; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const AggregateQuery query = gen.Next();
    const bool need_sum = query.kind == AggregateKind::kSum;
    auto ra = ea.Estimate(query);
    auto rb = eb.Estimate(query);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    const PartialEstimate& x = ra.value();
    const PartialEstimate& y = rb.value();
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.reasons, y.reasons);
    EXPECT_EQ(x.virtual_ns, y.virtual_ns);
    EXPECT_EQ(x.hedges, y.hedges);
    EXPECT_EQ(x.retries, y.retries);
    hedges += x.hedges;
    retries += x.retries;

    // The fold over one sequential Serve per responding node.
    std::vector<AnatomyQueryEngine::GroupAggregatePartial> partials;
    for (size_t i = 0; i < c->num_nodes(); ++i) {
      if (x.reasons[i] != obs::ReasonCode::kOk) continue;
      DistNode::ServeResult r =
          c->node(i)->Serve(query.predicates, need_sum, query.measure_qi,
                            std::numeric_limits<uint64_t>::max(), rng);
      ASSERT_TRUE(r.answered());
      partials.insert(partials.end(), r.partials.begin(), r.partials.end());
    }
    const CanonicalFoldResult fold = CanonicalFold(partials);
    EXPECT_EQ(x.value, need_sum ? fold.sum : fold.count);
  }
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(retries, 0u);
}

// ------------------------------------------------------ two-phase swaps

TEST(DistTest, ConcurrentActivationPublishesTheSameEpochs) {
  // publish_threads sizes the prepare pool and the activation pool. With
  // one thread every node activates in node order; with four, six nodes
  // activate concurrently. Everything a caller can observe must match.
  struct Observed {
    std::vector<EpochPublishReport> reports;
    std::vector<EpochRecord> records;
    std::vector<StorageManifest> manifests;  // epoch-major, then node
    std::vector<GroupId> offsets;
    std::vector<PartialEstimate> answers;
  };
  const Microdata md = MakeChaosMicrodata(3000, 4, 41);
  auto publish = [&](size_t threads) {
    DistClusterOptions copts;
    copts.nodes = 6;
    copts.l = 4;
    copts.seed = 43;
    copts.publish_threads = threads;
    DistCluster cluster(copts);
    ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
    Observed out;
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      auto report = cluster.PublishEpoch(md);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (!report.ok()) return out;
      out.reports.push_back(report.value());
      out.records.push_back(cluster.record());
      for (size_t i = 0; i < cluster.num_nodes(); ++i) {
        DistNode* node = cluster.node(i);
        EXPECT_TRUE(node->active());
        EXPECT_EQ(node->epoch(), epoch);
        out.manifests.push_back(node->manifest());
        out.offsets.push_back(node->group_offset());
      }
      MixedWorkloadGenerator gen = MakeGenerator(md, 47 + epoch, 30);
      for (int q = 0; q < 30; ++q) {
        auto r = estimator.Estimate(gen.Next());
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) out.answers.push_back(r.value());
      }
    }
    return out;
  };
  const Observed serial = publish(1);
  const Observed concurrent = publish(4);

  ASSERT_EQ(serial.reports.size(), 3u);
  ASSERT_EQ(concurrent.reports.size(), serial.reports.size());
  for (size_t e = 0; e < serial.reports.size(); ++e) {
    const EpochPublishReport& x = serial.reports[e];
    const EpochPublishReport& y = concurrent.reports[e];
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.shards_run, y.shards_run);
    EXPECT_EQ(x.merged_shards, y.merged_shards);
    EXPECT_EQ(x.activation_failures, 0u);
    EXPECT_EQ(y.activation_failures, 0u);
    const EpochRecord& rx = serial.records[e];
    const EpochRecord& ry = concurrent.records[e];
    EXPECT_EQ(rx.epoch, ry.epoch);
    EXPECT_EQ(rx.total_rows, ry.total_rows);
    ASSERT_EQ(rx.nodes.size(), ry.nodes.size());
    for (size_t i = 0; i < rx.nodes.size(); ++i) {
      EXPECT_EQ(rx.nodes[i].root, ry.nodes[i].root);
      EXPECT_EQ(rx.nodes[i].prev_root, ry.nodes[i].prev_root);
      EXPECT_EQ(rx.nodes[i].group_count, ry.nodes[i].group_count);
      EXPECT_EQ(rx.nodes[i].rows, ry.nodes[i].rows);
    }
  }
  ASSERT_EQ(concurrent.manifests.size(), serial.manifests.size());
  for (size_t k = 0; k < serial.manifests.size(); ++k) {
    const StorageManifest& x = serial.manifests[k];
    const StorageManifest& y = concurrent.manifests[k];
    EXPECT_EQ(x.root, y.root);
    EXPECT_EQ(x.l, y.l);
    EXPECT_EQ(x.qit.fields, y.qit.fields);
    EXPECT_EQ(x.qit.records, y.qit.records);
    EXPECT_EQ(x.qit.pages, y.qit.pages);
    EXPECT_EQ(x.st.fields, y.st.fields);
    EXPECT_EQ(x.st.records, y.st.records);
    EXPECT_EQ(x.st.pages, y.st.pages);
    EXPECT_EQ(x.manifest_pages, y.manifest_pages);
  }
  EXPECT_EQ(serial.offsets, concurrent.offsets);
  ASSERT_EQ(serial.answers.size(), 90u);
  ASSERT_EQ(concurrent.answers.size(), serial.answers.size());
  for (size_t q = 0; q < serial.answers.size(); ++q) {
    SCOPED_TRACE("answer " + std::to_string(q));
    const PartialEstimate& x = serial.answers[q];
    const PartialEstimate& y = concurrent.answers[q];
    EXPECT_TRUE(x.exact);
    EXPECT_EQ(x.exact, y.exact);
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.lower, y.lower);
    EXPECT_EQ(x.upper, y.upper);
    EXPECT_EQ(x.reasons, y.reasons);
    EXPECT_EQ(x.virtual_ns, y.virtual_ns);
  }
}

TEST(DistTest, EverySwapKillPointRecoversToOneConsistentEpoch) {
  const Microdata md1 = MakeChaosMicrodata(900, 3, 71);
  const Microdata md2 = MakeChaosMicrodata(900, 3, 73);
  const SwapKillPoint kills[] = {
      SwapKillPoint::kAfterPrepare, SwapKillPoint::kBeforeCommit,
      SwapKillPoint::kAfterCommit, SwapKillPoint::kMidGc};
  for (SwapKillPoint kill : kills) {
    SCOPED_TRACE("kill=" + std::to_string(static_cast<int>(kill)));
    DistClusterOptions copts;
    copts.nodes = 3;
    copts.l = 3;
    copts.seed = 79 + static_cast<uint64_t>(kill);
    DistCluster cluster(copts);
    ASSERT_TRUE(cluster.PublishEpoch(md1).ok());

    auto killed = cluster.PublishEpoch(md2, kill);
    EXPECT_FALSE(killed.ok());
    ASSERT_TRUE(cluster.Recover().ok());

    const uint64_t expected = (kill == SwapKillPoint::kAfterPrepare ||
                               kill == SwapKillPoint::kBeforeCommit)
                                  ? 1u
                                  : 2u;
    EXPECT_EQ(cluster.epoch(), expected);
    for (size_t i = 0; i < cluster.num_nodes(); ++i) {
      const NodeEpochInfo& info = cluster.record().nodes[i];
      if (info.root == kInvalidPageId) {
        EXPECT_FALSE(cluster.node(i)->active());
        EXPECT_TRUE(SortedLivePages(cluster.node(i)).empty());
        continue;
      }
      ASSERT_TRUE(cluster.node(i)->active());
      EXPECT_EQ(cluster.node(i)->epoch(), expected);
      // Zero orphans: the disk holds exactly the current manifest's pages —
      // prepared-but-uncommitted epochs and un-GC'd old epochs are gone.
      EXPECT_EQ(SortedLivePages(cluster.node(i)),
                SortedOwnedPages(cluster.node(i)->manifest()));
    }

    // And the recovered fleet serves exact answers for its epoch.
    auto tables_or = cluster.BuildMergedTables();
    ASSERT_TRUE(tables_or.ok()) << tables_or.status().ToString();
    ScatterGatherEstimator estimator(&cluster, DistQueryOptions{});
    MixedWorkloadGenerator gen = MakeGenerator(md1, 83, 10);
    for (int i = 0; i < 10; ++i) {
      const AggregateQuery query = gen.Next();
      auto r = estimator.Estimate(query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().exact);
      EXPECT_EQ(r.value().value, RefValue(tables_or.value(), query));
    }
  }
}

TEST(DistTest, CommitFailureRollsBackPreparedPublications) {
  const Microdata md1 = MakeChaosMicrodata(900, 3, 89);
  const Microdata md2 = MakeChaosMicrodata(900, 3, 97);
  DistClusterOptions copts;
  copts.nodes = 2;
  copts.l = 3;
  copts.seed = 101;
  DistCluster cluster(copts);
  ASSERT_TRUE(cluster.PublishEpoch(md1).ok());
  std::vector<std::vector<PageId>> before;
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    before.push_back(SortedLivePages(cluster.node(i)));
  }

  // The coordinator's record write fails every attempt: the flip never
  // happens, and the prepared epoch-2 publications are rolled back.
  FaultSpec spec;
  spec.seed = 103;
  spec.write_transient_rate = 1.0;
  cluster.coordinator_disk()->ReArm(spec);
  auto r = cluster.PublishEpoch(md2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(cluster.epoch(), 1u);
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    EXPECT_EQ(SortedLivePages(cluster.node(i)), before[i]) << "node " << i;
    if (cluster.record().nodes[i].root != kInvalidPageId) {
      EXPECT_TRUE(cluster.node(i)->active());
      EXPECT_EQ(cluster.node(i)->epoch(), 1u);
    }
  }

  // Healed, the same swap goes through.
  cluster.coordinator_disk()->Heal();
  auto retry = cluster.PublishEpoch(md2);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(cluster.epoch(), 2u);
}

// ------------------------------------- crash-at-every-write-index sweep

TEST(DistTest, PublishSurvivesCrashAtEveryWriteIndex) {
  SimulatedDisk base;
  FaultInjectingDisk disk(&base, FaultSpec{.seed = 77});
  BufferPool pool(&disk, 40);
  const Microdata md = MakeChaosMicrodata(300, 3, 21);
  AnatomizerOptions aopts;
  aopts.l = 3;
  aopts.seed = 5;
  ExternalAnatomizer anatomizer(aopts);

  // Publication A: the state every crashed attempt must leave untouched.
  auto a = anatomizer.RunPublished(md, &disk, &pool);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const StorageManifest manifest_a = a.value().manifest;
  std::vector<PageId> only_a = disk.LivePages();
  std::sort(only_a.begin(), only_a.end());

  // Count the writes of one full publish run from this state.
  disk.ResetStats();
  auto probe = anatomizer.RunPublished(md, &disk, &pool);
  ASSERT_TRUE(probe.ok());
  const uint64_t writes = disk.fault_stats().writes_observed;
  ASSERT_GT(writes, 0u);
  ASSERT_TRUE(
      DiscardPublication(&disk, &pool, probe.value().manifest).ok());

  // Crash after exactly k successful writes, for every k. The device stays
  // down for the rest of the attempt (reads fail too), so even the final
  // root write cannot produce a committed-but-unverified publication.
  size_t failed = 0;
  for (uint64_t k = 1; k <= writes; ++k) {
    FaultSpec spec;
    spec.seed = 1000 + k;
    spec.crash_after_writes = k;
    disk.ReArm(spec);
    auto attempt = anatomizer.RunPublished(md, &disk, &pool);
    disk.Heal();
    if (attempt.ok()) {
      // Crash point beyond this run's writes: a full, verified publication.
      EXPECT_TRUE(
          VerifyPublication(&disk, attempt.value().manifest).ok());
      ASSERT_TRUE(
          DiscardPublication(&disk, &pool, attempt.value().manifest).ok());
    } else {
      ++failed;
    }
    // Either way: publication A is fully intact and the disk holds exactly
    // A's pages — never a torn half-publication, never a leak.
    auto reloaded = LoadPublication(&disk, manifest_a.root);
    ASSERT_TRUE(reloaded.ok()) << "k=" << k;
    EXPECT_TRUE(VerifyPublication(&disk, reloaded.value()).ok()) << "k=" << k;
    std::vector<PageId> live = disk.LivePages();
    std::sort(live.begin(), live.end());
    EXPECT_EQ(live, only_a) << "k=" << k;
  }
  EXPECT_GT(failed, 0u);
}

// ------------------------------------------------------- serving runner

TEST(DistTest, ServingRunnerReportsCleanZeroFaultRun) {
  DistServingOptions options;
  options.nodes = 3;
  options.rows = 900;
  options.l = 3;
  options.seed = 7;
  options.num_queries = 100;
  auto report = RunDistServingWorkload(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().queries, 100u);
  EXPECT_EQ(report.value().exact, 100u);
  EXPECT_EQ(report.value().partial, 0u);
  EXPECT_EQ(report.value().unavailable, 0u);
  EXPECT_GT(report.value().p50_ns, 0u);
  EXPECT_GE(report.value().p99_ns, report.value().p50_ns);
}

}  // namespace
}  // namespace anatomy
