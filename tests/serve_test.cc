// Serving-layer tests: tenant access enforcement with denial reasons
// asserted BY VALUE (the flight-recorder ReasonCode vocabulary, never
// message substrings), epoch-swap bit-identity (every answer matches the
// size-class fold over ITS epoch's merged tables, before, during recovery
// from, and after a swap), traffic-schedule determinism, and the serve
// loop's swap-under-load accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/census_generator.h"
#include "data/dataset.h"
#include "dist/scatter_gather.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "query/group_kernels.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/traffic.h"
#include "workload/workload.h"

namespace anatomy {
namespace serve {
namespace {

Microdata MakeMicrodata(RowId n, uint64_t seed,
                        SensitiveFamily family = SensitiveFamily::kOccupation) {
  const Table census = GenerateCensus(n, seed);
  auto dataset = MakeExperimentDataset(census, family, /*d=*/3);
  ANATOMY_CHECK_OK(dataset.status());
  return std::move(dataset.value().microdata);
}

ServePublication* AddPublication(PublicationCatalog* catalog,
                                 const std::string& name, RowId n,
                                 uint64_t seed) {
  ServePublicationOptions options;
  options.name = name;
  options.nodes = 2;
  options.l = 4;
  options.seed = seed;
  auto added = catalog->Add(options, MakeMicrodata(n, seed));
  ANATOMY_CHECK_OK(added.status());
  return added.value();
}

AggregateQuery CountOnColumn(size_t qi_index) {
  AggregateQuery query;
  query.kind = AggregateKind::kCount;
  query.predicates.qi_predicates.push_back(
      AttributePredicate(qi_index, {0, 1}));
  return query;
}

MixedWorkloadGenerator MakeQueries(const Microdata& md, uint64_t seed) {
  MixedWorkloadOptions options;
  options.base.seed = seed;
  options.base.s = 0.08;
  options.base.num_queries = 32;
  options.sum_fraction = 0.5;
  auto generator = MixedWorkloadGenerator::Create(md, options);
  ANATOMY_CHECK_OK(generator.status());
  return std::move(generator).value();
}

// Size-class fold of a row scan over one epoch's merged tables — the value
// the scatter-gather path promises to reproduce bit-for-bit.
double RefValue(const AnatomizedTables& tables, const AggregateQuery& query) {
  const bool need_sum = query.kind == AggregateKind::kSum;
  const CanonicalFoldResult fold = CanonicalFold(ScanSizeClassPartials(
      tables, query.predicates, need_sum, query.measure_qi));
  return need_sum ? fold.sum : fold.count;
}

// ---------------------------------------------------- access enforcement --

TEST(SessionTest, DenialReasonsAssertedByValue) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);
  AddPublication(&catalog, "sal", 2000, 4);

  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ"};
  policy.allow_sum = false;
  policy.denied_qi_columns = {0};
  Session session("auditor", policy, &catalog, &recorder);

  // Publication outside the allowlist — and the code is identical for a
  // name that does not exist at all, so a denial is not a catalog-
  // membership oracle.
  EXPECT_EQ(session.Query("sal", CountOnColumn(1)).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kAccessDeniedPublication);
  EXPECT_EQ(session.Query("no-such-pub", CountOnColumn(1)).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kAccessDeniedPublication);

  // Disallowed aggregate kind.
  AggregateQuery sum = CountOnColumn(1);
  sum.kind = AggregateKind::kSum;
  sum.measure_qi = 1;
  EXPECT_EQ(session.Query("occ", sum).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kAccessDeniedAggregate);

  // Denied QI column, as a predicate.
  EXPECT_EQ(session.Query("occ", CountOnColumn(0)).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kAccessDeniedColumn);

  // A permitted query succeeds and clears last_denial().
  auto ok = session.Query("occ", CountOnColumn(1));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kNone);
  EXPECT_EQ(session.stats().answered, 1u);
  EXPECT_EQ(session.stats().denied, 4u);

  // Every denial left a typed flight event carrying its reason by value.
  std::vector<obs::ReasonCode> logged;
  for (const obs::FlightRecord& rec : recorder.Snapshot()) {
    if (rec.type == obs::FlightEventType::kAccessDenied) {
      logged.push_back(rec.reason);
    }
  }
  ASSERT_EQ(logged.size(), 4u);
  EXPECT_EQ(logged[0], obs::ReasonCode::kAccessDeniedPublication);
  EXPECT_EQ(logged[1], obs::ReasonCode::kAccessDeniedPublication);
  EXPECT_EQ(logged[2], obs::ReasonCode::kAccessDeniedAggregate);
  EXPECT_EQ(logged[3], obs::ReasonCode::kAccessDeniedColumn);
}

TEST(SessionTest, DeniedSumMeasureColumn) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);
  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ"};
  policy.denied_qi_columns = {2};
  Session session("analyst", policy, &catalog, &recorder);

  // The denied column is fine as neither predicate nor measure...
  ASSERT_TRUE(session.Query("occ", CountOnColumn(1)).ok());
  // ...but summing it is a column denial even though SUM itself is allowed.
  AggregateQuery sum = CountOnColumn(1);
  sum.kind = AggregateKind::kSum;
  sum.measure_qi = 2;
  EXPECT_EQ(session.Query("occ", sum).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kAccessDeniedColumn);
}

TEST(SessionTest, AllowedButMissingPublicationIsNotFoundNotDenial) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);
  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ", "decommissioned"};
  Session session("analyst", policy, &catalog, &recorder);

  const Status status =
      session.Query("decommissioned", CountOnColumn(1)).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kNone);
  EXPECT_EQ(session.stats().denied, 0u);
  EXPECT_EQ(session.stats().errors, 1u);
}

TEST(SessionTest, PredicateOnMissingColumnIsInvalidArgument) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);  // d = 3
  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ"};
  Session session("analyst", policy, &catalog, &recorder);

  // A predicate on a column the publication lacks is a typed error from
  // the estimator, not a CHECK-abort in a node's bitmap index.
  uint64_t errors = 0;
  for (size_t column : {3u, 4u, 9u}) {
    const Status status = session.Query("occ", CountOnColumn(column)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << column;
    EXPECT_EQ(session.last_denial(), obs::ReasonCode::kNone);
    EXPECT_EQ(session.stats().errors, ++errors);
  }
  EXPECT_EQ(session.stats().answered, 0u);
  // The session keeps serving.
  auto answer = session.Query("occ", CountOnColumn(2));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().exact);
}

TEST(SessionTest, EpochBudgetDeniesNewEpochsAndChargesOnlyAnswers) {
  PublicationCatalog catalog;
  ServePublication* pub = AddPublication(&catalog, "occ", 2000, 5);
  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ"};
  policy.epoch_budget = 1;
  Session session("analyst", policy, &catalog, &recorder);

  // Epoch 1: first answer charges the budget; repeats of the same epoch
  // stay free.
  ASSERT_TRUE(session.Query("occ", CountOnColumn(1)).ok());
  ASSERT_TRUE(session.Query("occ", CountOnColumn(1)).ok());
  EXPECT_EQ(session.EpochsObserved("occ"), 1u);

  // Republication flips the catalog to epoch 2 — over this session's
  // budget, so the query is refused with the budget code and the session
  // never observes the new partition.
  ASSERT_TRUE(pub->RepublishEpoch().ok());
  EXPECT_EQ(pub->epoch(), 2u);
  EXPECT_EQ(session.Query("occ", CountOnColumn(1)).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session.last_denial(), obs::ReasonCode::kEpochBudgetExceeded);
  EXPECT_EQ(session.EpochsObserved("occ"), 1u);

  // The budget event carries the refused epoch in `detail`.
  bool saw_budget_event = false;
  for (const obs::FlightRecord& rec : recorder.Snapshot()) {
    if (rec.type == obs::FlightEventType::kAccessDenied &&
        rec.reason == obs::ReasonCode::kEpochBudgetExceeded) {
      saw_budget_event = true;
      EXPECT_EQ(rec.detail, 2);
    }
  }
  EXPECT_TRUE(saw_budget_event);
}

// ------------------------------------------------- epoch-swap bit-identity --

TEST(ServeBitIdentityTest, AnswersMatchEachEpochsCanonicalFold) {
  PublicationCatalog catalog;
  ServePublication* pub = AddPublication(&catalog, "occ", 3000, 9);
  obs::FlightRecorder recorder;
  TenantPolicy policy;
  policy.publications = {"occ"};
  Session session("analyst", policy, &catalog, &recorder);

  MixedWorkloadGenerator gen = MakeQueries(pub->microdata(), 21);
  std::vector<AggregateQuery> queries;
  for (int i = 0; i < 24; ++i) queries.push_back(gen.Next());

  const auto check_epoch = [&](const char* when) {
    auto tables = pub->cluster()->BuildMergedTables();
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    for (const AggregateQuery& query : queries) {
      auto answer = session.Query("occ", query);
      ASSERT_TRUE(answer.ok()) << when << ": " << answer.status().ToString();
      EXPECT_TRUE(answer.value().exact) << when;
      // Bit-identical, not approximately equal: per-node partials are exact
      // integers, so distribution cannot change the fold.
      EXPECT_EQ(answer.value().value, RefValue(tables.value(), query)) << when;
    }
  };

  ASSERT_EQ(pub->epoch(), 1u);
  check_epoch("epoch 1");

  // A killed swap recovers onto the OLD epoch (PREPARE wrote beside it,
  // COMMIT never flipped) and answers still match epoch 1's fold.
  auto killed = pub->RepublishEpoch(nullptr, SwapKillPoint::kAfterPrepare);
  EXPECT_FALSE(killed.ok());
  ASSERT_TRUE(pub->cluster()->Recover().ok());
  ASSERT_EQ(pub->epoch(), 1u);
  check_epoch("after killed swap + recovery");

  // A clean swap re-anatomizes under a fresh per-epoch seed; answers now
  // match the NEW epoch's fold.
  auto swapped = pub->RepublishEpoch();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ASSERT_EQ(pub->epoch(), 2u);
  check_epoch("epoch 2");
}

// ----------------------------------------------------- traffic generator --

TEST(TrafficTest, ScheduleIsDeterministicAndArrivalOrdered) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);
  AddPublication(&catalog, "sal", 2000, 4);

  TrafficOptions options;
  options.seed = 77;
  options.classes = {{"analyst", "occ", 800.0, 0.5},
                     {"analyst", "sal", 500.0, 0.2},
                     {"auditor", "occ", 300.0, 0.0}};

  auto first = TrafficGenerator::Create(options, &catalog);
  auto second = TrafficGenerator::Create(options, &catalog);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  uint64_t previous_ns = 0;
  for (int i = 0; i < 200; ++i) {
    const TrafficRequest a = first.value().Next();
    const TrafficRequest b = second.value().Next();
    EXPECT_EQ(a.arrival_ns, b.arrival_ns);
    EXPECT_EQ(a.class_index, b.class_index);
    EXPECT_EQ(a.query.kind, b.query.kind);
    EXPECT_EQ(a.query.measure_qi, b.query.measure_qi);
    EXPECT_EQ(a.query.predicates.qi_predicates.size(),
              b.query.predicates.qi_predicates.size());
    // Global virtual-time order with no regressions.
    EXPECT_GE(a.arrival_ns, previous_ns);
    previous_ns = a.arrival_ns;
  }

  options.seed = 78;
  auto reseeded = TrafficGenerator::Create(options, &catalog);
  ASSERT_TRUE(reseeded.ok());
  bool diverged = false;
  auto replay = TrafficGenerator::Create(options, &catalog);
  ASSERT_TRUE(replay.ok());
  auto baseline = TrafficGenerator::Create(
      TrafficOptions{options.classes, 77}, &catalog);
  ASSERT_TRUE(baseline.ok());
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = reseeded.value().Next().arrival_ns !=
               baseline.value().Next().arrival_ns;
  }
  EXPECT_TRUE(diverged);
}

TEST(TrafficTest, RejectsUnknownPublicationAndBadRate) {
  PublicationCatalog catalog;
  AddPublication(&catalog, "occ", 2000, 3);
  {
    TrafficOptions options;
    options.classes = {{"analyst", "missing", 100.0, 0.5}};
    EXPECT_FALSE(TrafficGenerator::Create(options, &catalog).ok());
  }
  {
    TrafficOptions options;
    options.classes = {{"analyst", "occ", 0.0, 0.5}};
    EXPECT_FALSE(TrafficGenerator::Create(options, &catalog).ok());
  }
}

// ------------------------------------------------------- swap under load --

TEST(ServerTest, CowSwapUnderLoadNeverBlocksAndAccountingBalances) {
  PublicationCatalog catalog;
  ServePublicationOptions pub_options;
  pub_options.name = "occ";
  pub_options.nodes = 2;
  pub_options.l = 4;
  pub_options.seed = 5;
  // A wide rebuild window so arrivals reliably land inside it.
  pub_options.rebuild_floor_ns = 20'000'000;
  ANATOMY_CHECK_OK(catalog.Add(pub_options, MakeMicrodata(2500, 5)).status());

  obs::MetricRegistry registry;
  obs::FlightRecorder recorder;
  AnatomyServer server(&catalog, &registry, &recorder);
  TenantPolicy analyst;
  analyst.publications = {"occ"};
  ASSERT_TRUE(server.AddTenant("analyst", analyst).ok());

  ServeLoopOptions options;
  options.duration_ns = 300'000'000;  // 300 virtual ms
  options.traffic.seed = 11;
  options.traffic.classes = {{"analyst", "occ", 400.0, 0.5}};
  EpochSwapSpec swap;
  swap.publication = "occ";
  swap.at_ns = options.duration_ns / 3;
  options.swaps.push_back(swap);
  options.slo_enabled = false;

  auto report = server.Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServeReport& r = report.value();

  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.requests,
            r.answered + r.denied + r.unavailable + r.not_found);
  EXPECT_EQ(r.denied, 0u);
  EXPECT_EQ(r.not_found, 0u);

  ASSERT_EQ(r.swaps.size(), 1u);
  const SwapOutcome& outcome = r.swaps[0];
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.epoch_before, 1u);
  EXPECT_EQ(outcome.epoch_after, 2u);
  EXPECT_GT(outcome.queries_during_window, 0u);
  // The COW guarantee, asserted — not assumed.
  EXPECT_EQ(outcome.queries_blocked, 0u);
  EXPECT_EQ(catalog.Find("occ")->epoch(), 2u);

  // Quantiles are well-formed.
  EXPECT_LE(r.p50_ns, r.p99_ns);
  EXPECT_LE(r.p99_ns, r.max_ns);
}

}  // namespace
}  // namespace serve
}  // namespace anatomy
