// Property tests for the group-clustered query kernels: across a grid of
// dataset shapes, privacy parameters, and workload configurations, the
// kernel paths (with and without the predicate-bitmap cache) must agree
// with the retained scalar reference within 1e-9 relative on every
// COUNT/SUM/AVG estimate, and the per-group match counts must be
// integer-identical. Plus unit tests for the predicate cache itself
// (hit/miss/eviction accounting, kill switch, lease validity across
// eviction) and the zero-QI-predicate fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "common/arena.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "dist/scatter_gather.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "query/anatomy_estimator.h"
#include "query/bitmap.h"
#include "query/pred_cache.h"
#include "query/simd.h"
#include "table/schema.h"
#include "test_util.h"
#include "workload/workload.h"

namespace anatomy {
namespace {

using testing_util::RangePredicate;

constexpr double kRelTol = 1e-9;

bool WithinRel(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= kRelTol * scale;
}

struct AnatomizedCensus {
  ExperimentDataset dataset;
  AnatomizedTables tables;
};

AnatomizedCensus MakeAnatomizedCensus(RowId n, int d, int l, uint64_t seed) {
  const Table census = GenerateCensus(n, seed);
  auto dataset = MakeExperimentDataset(census, SensitiveFamily::kOccupation, d);
  ANATOMY_CHECK_OK(dataset.status());
  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = seed + 1});
  auto partition = anatomizer.ComputePartition(dataset.value().microdata);
  ANATOMY_CHECK_OK(partition.status());
  auto tables =
      AnatomizedTables::Build(dataset.value().microdata, partition.value());
  ANATOMY_CHECK_OK(tables.status());
  return AnatomizedCensus{std::move(dataset).value(), std::move(tables).value()};
}

std::vector<CountQuery> GridQueries(const Microdata& md, int qd, double s,
                                    size_t count, uint64_t seed,
                                    bool range_predicates) {
  WorkloadOptions options;
  options.qd = qd;
  options.s = s;
  options.seed = seed;
  options.range_predicates = range_predicates;
  auto generator = WorkloadGenerator::Create(md, options);
  ANATOMY_CHECK_OK(generator.status());
  std::vector<CountQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) queries.push_back(generator.value().Next());
  return queries;
}

std::vector<uint64_t> BruteForceGroupMatches(const AnatomizedCensus& census,
                                             const CountQuery& query) {
  const Microdata& md = census.dataset.microdata;
  std::vector<uint64_t> counts(census.tables.num_groups(), 0);
  for (RowId r = 0; r < md.n(); ++r) {
    bool match = true;
    for (const AttributePredicate& pred : query.qi_predicates) {
      if (!pred.Matches(md.qi_value(r, pred.qi_index()))) {
        match = false;
        break;
      }
    }
    if (match) ++counts[census.tables.group_of_row(r)];
  }
  return counts;
}

// ------------------------------------------------------- Grid properties --

TEST(QueryKernelsPropertyTest, KernelsMatchScalarReferenceAcrossGrid) {
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;
  EstimatorOptions kernel;
  kernel.predcache.enabled = false;
  EstimatorOptions cached;  // defaults: kernels + cache

  for (int d : {3, 5}) {
    for (int l : {4, 10}) {
      for (uint64_t seed : {11u, 12u}) {
        const AnatomizedCensus census = MakeAnatomizedCensus(4000, d, l, seed);
        const Microdata& md = census.dataset.microdata;
        const AnatomyAggregateEstimator scalar_est(census.tables, scalar);
        const AnatomyAggregateEstimator kernel_est(census.tables, kernel);
        const AnatomyAggregateEstimator cached_est(census.tables, cached);

        for (int qd : {2, 0}) {  // 0 = all d attributes
          for (bool ranges : {false, true}) {
            const std::vector<CountQuery> queries = GridQueries(
                md, qd, /*s=*/0.05, /*count=*/40, seed + 100 * qd + ranges,
                ranges);
            for (size_t i = 0; i < queries.size(); ++i) {
              for (AggregateKind kind :
                   {AggregateKind::kCount, AggregateKind::kSum,
                    AggregateKind::kAvg}) {
                AggregateQuery q;
                q.predicates = queries[i];
                q.kind = kind;
                q.measure_qi = static_cast<size_t>(i) % md.d();
                const double ref = scalar_est.Estimate(q);
                const double ker = kernel_est.Estimate(q);
                const double cac = cached_est.Estimate(q);
                EXPECT_TRUE(WithinRel(ref, ker))
                    << "d=" << d << " l=" << l << " seed=" << seed
                    << " qd=" << qd << " ranges=" << ranges << " query=" << i
                    << " kind=" << static_cast<int>(kind) << ": scalar=" << ref
                    << " kernel=" << ker;
                // The cache must never change a bit relative to the
                // uncached kernel path.
                EXPECT_EQ(ker, cac)
                    << "d=" << d << " l=" << l << " seed=" << seed
                    << " qd=" << qd << " query=" << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(QueryKernelsPropertyTest, GroupMatchCountsAreIntegerIdentical) {
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;

  const AnatomizedCensus census = MakeAnatomizedCensus(3000, 4, 6, 13);
  const Microdata& md = census.dataset.microdata;
  const AnatomyEstimator scalar_est(census.tables, scalar);
  const AnatomyEstimator kernel_est(census.tables);

  const std::vector<CountQuery> queries =
      GridQueries(md, /*qd=*/3, /*s=*/0.08, /*count=*/25, 77, false);
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<uint64_t> expected =
        BruteForceGroupMatches(census, queries[i]);
    EXPECT_EQ(scalar_est.GroupMatchCounts(queries[i]), expected)
        << "query " << i;
    EXPECT_EQ(kernel_est.GroupMatchCounts(queries[i]), expected)
        << "query " << i;
  }

  // No QI predicates: every row of every group matches.
  CountQuery all;
  all.sensitive_predicate = AttributePredicate(0, {0});
  std::vector<uint64_t> sizes(census.tables.num_groups());
  for (GroupId g = 0; g < census.tables.num_groups(); ++g) {
    sizes[g] = census.tables.group_size(g);
  }
  EXPECT_EQ(kernel_est.GroupMatchCounts(all), sizes);
  EXPECT_EQ(scalar_est.GroupMatchCounts(all), sizes);
}

// -------------------------------------------------- Zero-QI-predicate path --

TEST(QueryKernelsTest, ZeroQiFastPathMatchesScalar) {
  const AnatomizedCensus census = MakeAnatomizedCensus(2500, 3, 5, 21);
  const Code domain =
      census.dataset.microdata.sensitive_attribute().domain_size;
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;
  const AnatomyAggregateEstimator scalar_est(census.tables, scalar);
  const AnatomyAggregateEstimator kernel_est(census.tables);

  for (Code lo = 0; lo < domain; lo += 3) {
    AggregateQuery q;
    q.predicates.sensitive_predicate =
        RangePredicate(0, lo, std::min<Code>(lo + 4, domain - 1));
    for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum,
                               AggregateKind::kAvg}) {
      q.kind = kind;
      q.measure_qi = 1;
      EXPECT_TRUE(WithinRel(scalar_est.Estimate(q), kernel_est.Estimate(q)))
          << "lo=" << lo << " kind=" << static_cast<int>(kind);
    }
  }

  // The zero-QI COUNT is exact: sum of the ST's published per-value totals.
  AggregateQuery exact_count;
  exact_count.predicates.sensitive_predicate = RangePredicate(0, 0, domain - 1);
  exact_count.kind = AggregateKind::kCount;
  EXPECT_EQ(kernel_est.Estimate(exact_count),
            static_cast<double>(census.dataset.microdata.n()));

  // Out-of-domain sensitive codes qualify nothing on the fast path either.
  AggregateQuery padded = exact_count;
  padded.predicates.sensitive_predicate =
      AttributePredicate(0, {-5, domain, domain + 7});
  EXPECT_EQ(kernel_est.Estimate(padded), 0.0);
}

// ----------------------------------------------------- Predicate cache ----

TEST(PredicateCacheTest, CountsHitsMissesAndEvictions) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* hits = registry.GetCounter("query.predcache.hits");
  obs::Counter* misses = registry.GetCounter("query.predcache.misses");
  obs::Counter* races = registry.GetCounter("query.predcache.races");
  obs::Counter* evictions = registry.GetCounter("query.predcache.evictions");
  const uint64_t h0 = hits->value();
  const uint64_t m0 = misses->value();
  const uint64_t r0 = races->value();
  const uint64_t e0 = evictions->value();

  PredicateCacheOptions options;
  options.capacity = 2;
  options.shards = 1;  // single LRU domain: eviction order is deterministic
  PredicateBitmapCache cache(options);
  int computes = 0;
  uint64_t lookups = 0;
  const auto lookup = [&](size_t column, std::vector<Code> values) {
    ++lookups;
    return cache.GetOrCompute(column, values, [&](Bitmap& out) {
      ++computes;
      out.Reset(8);
      out.Set(column);
    });
  };

  auto a = lookup(0, {1});     // miss
  auto a2 = lookup(0, {1});    // hit
  EXPECT_EQ(a.get(), a2.get());  // same resident bitmap, not a copy
  lookup(1, {2});              // miss (cache full: {a, b})
  lookup(2, {3});              // miss -> evicts key a (LRU)
  EXPECT_EQ(cache.size(), 2u);
  lookup(0, {1});              // miss again: it was evicted
  EXPECT_EQ(computes, 4);

  EXPECT_EQ(hits->value() - h0, 1u);
  EXPECT_EQ(misses->value() - m0, 4u);
  EXPECT_EQ(evictions->value() - e0, 2u);

  // The lease taken before eviction is still a valid bitmap: shared
  // ownership keeps it alive, residency only affects future lookups.
  EXPECT_EQ(a->size(), 8u);
  EXPECT_TRUE(a->Test(0));

  // Same values under a different column is a different key.
  lookup(2, {3});  // hit
  EXPECT_EQ(hits->value() - h0, 2u);

  // Accounting invariant: every lookup is exactly one hit or one miss.
  EXPECT_EQ((hits->value() - h0) + (misses->value() - m0), lookups);
  EXPECT_EQ(races->value() - r0, 0u);  // single-threaded, no re-entrancy
}

TEST(PredicateCacheTest, RaceLostInsertKeepsInvariantAndCountsRace) {
  // Deterministic reproduction of the concurrent miss-miss race: while the
  // outer GetOrCompute of key (0,{1}) is still computing (outside any
  // lock), the same key is inserted by a nested lookup. The outer call must
  // then discard its duplicate work, adopt the resident bitmap, and count
  // the event in query.predcache.races — while each of the two lookups
  // still counts exactly one miss, so hits + misses == lookups holds.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter* hits = registry.GetCounter("query.predcache.hits");
  obs::Counter* misses = registry.GetCounter("query.predcache.misses");
  obs::Counter* races = registry.GetCounter("query.predcache.races");
  const uint64_t h0 = hits->value();
  const uint64_t m0 = misses->value();
  const uint64_t r0 = races->value();

  PredicateBitmapCache cache(PredicateCacheOptions{});
  int computes = 0;
  std::shared_ptr<const Bitmap> inner;
  const auto outer = cache.GetOrCompute(0, {1}, [&](Bitmap& out) {
    ++computes;
    out.Reset(8);
    out.Set(0);
    // The "other thread", interleaved mid-compute.
    inner = cache.GetOrCompute(0, {1}, [&](Bitmap& in) {
      ++computes;
      in.Reset(8);
      in.Set(0);
    });
  });

  EXPECT_EQ(computes, 2);            // both sides really computed
  EXPECT_EQ(outer.get(), inner.get());  // ...but the loser adopted the winner
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hits->value() - h0, 0u);
  EXPECT_EQ(misses->value() - m0, 2u);  // two lookups, two misses: invariant
  EXPECT_EQ(races->value() - r0, 1u);   // one lost insert, visible

  // The survivor is resident: the next lookup is a plain hit.
  const auto again = cache.GetOrCompute(0, {1}, [](Bitmap&) { FAIL(); });
  EXPECT_EQ(again.get(), outer.get());
  EXPECT_EQ(hits->value() - h0, 1u);
}

// ----------------------------------------------------- Batched evaluation --

TEST(BatchedEvaluationTest, BatchEstimatesAreBitIdenticalToSingle) {
  const AnatomizedCensus census = MakeAnatomizedCensus(3000, 4, 6, 51);
  const Microdata& md = census.dataset.microdata;

  EstimatorOptions uncached;
  uncached.predcache.enabled = false;
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;
  const AnatomyAggregateEstimator cached_est(census.tables);
  const AnatomyAggregateEstimator uncached_est(census.tables, uncached);
  const AnatomyAggregateEstimator scalar_est(census.tables, scalar);

  const std::vector<CountQuery> base =
      GridQueries(md, /*qd=*/2, /*s=*/0.08, /*count=*/37, 61, true);
  std::vector<AggregateQuery> queries;
  for (size_t i = 0; i < base.size(); ++i) {
    AggregateQuery q;
    q.predicates = base[i];
    q.kind = static_cast<AggregateKind>(i % 3);
    q.measure_qi = i % md.d();
    queries.push_back(q);
  }

  // Odd batch sizes exercise partial final batches and the 1-query batch.
  for (const AnatomyAggregateEstimator* est :
       {&cached_est, &uncached_est, &scalar_est}) {
    EstimatorScratch scratch;
    std::vector<double> single(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      single[i] = est->Estimate(queries[i], scratch);
    }
    for (size_t batch_size : {1u, 7u, 37u, 64u}) {
      std::vector<double> batched(queries.size());
      for (size_t b = 0; b < queries.size(); b += batch_size) {
        const size_t count = std::min(batch_size, queries.size() - b);
        est->EstimateBatch(&queries[b], count, scratch, &batched[b]);
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i], single[i])
            << "batch_size=" << batch_size << " query=" << i;
      }
    }
  }
}

TEST(BatchedEvaluationTest, CountBatchMatchesAnatomyEstimator) {
  const AnatomizedCensus census = MakeAnatomizedCensus(2000, 3, 5, 53);
  const AnatomyEstimator estimator(census.tables);
  const std::vector<CountQuery> queries =
      GridQueries(census.dataset.microdata, 2, 0.1, 23, 67, false);

  EstimatorScratch scratch;
  std::vector<double> batched(queries.size());
  estimator.EstimateBatch(queries.data(), queries.size(), scratch, batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], estimator.Estimate(queries[i], scratch))
        << "query " << i;
  }
}

// ----------------------------------------------- Size-class partials --

// Anatomized microdata whose QI attributes include a numerical measure with
// a negative numeric_base, so SUM partials carry negative and positive
// values, and one whose values exceed 2^53 in magnitude, so the engine
// cannot read them from its double copy of the column.
struct SignedMeasurePublication {
  Microdata md;
  AnatomizedTables tables;
};

SignedMeasurePublication MakeSignedMeasurePublication(RowId n, int l,
                                                      uint64_t seed) {
  const Code s_domain = static_cast<Code>(3 * l);
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Age", 60, /*base=*/17));
  defs.push_back(MakeNumerical("Balance", 64, /*base=*/-1000, /*step=*/37));
  defs.push_back(MakeCategorical("Region", 12));
  defs.push_back(MakeNumerical("Huge", 16, /*base=*/-(int64_t{1} << 62),
                               /*step=*/int64_t{1} << 58));
  defs.push_back(MakeCategorical("Disease", s_domain));
  Microdata md;
  md.table = Table(std::make_shared<Schema>(std::move(defs)));
  Rng rng(seed);
  for (RowId i = 0; i < n; ++i) {
    const Code row[5] = {static_cast<Code>(rng.NextBounded(60)),
                         static_cast<Code>(rng.NextBounded(64)),
                         static_cast<Code>(rng.NextBounded(12)),
                         static_cast<Code>(rng.NextBounded(16)),
                         static_cast<Code>(i % s_domain)};
    md.table.AppendRow(row);
  }
  md.qi_columns = {0, 1, 2, 3};
  md.sensitive_column = 4;
  Anatomizer anatomizer(AnatomizerOptions{.l = l, .seed = seed + 1});
  auto partition = anatomizer.ComputePartition(md);
  ANATOMY_CHECK_OK(partition.status());
  auto tables = AnatomizedTables::Build(md, partition.value());
  ANATOMY_CHECK_OK(tables.status());
  return SignedMeasurePublication{std::move(md), std::move(tables).value()};
}

double FoldValue(std::span<const AnatomyQueryEngine::GroupAggregatePartial> p,
                 bool need_sum) {
  const CanonicalFoldResult fold = CanonicalFold(p);
  return need_sum ? fold.sum : fold.count;
}

TEST(SizeClassPartialsTest, EngineEqualsRowScanOracleAndFoldIsOrderFree) {
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;
  for (int l : {3, 7}) {
    const SignedMeasurePublication pub =
        MakeSignedMeasurePublication(2000, l, 70 + l);
    const AnatomizedTables& tables = pub.tables;
    const GroupId m = static_cast<GroupId>(tables.num_groups());
    const AnatomyQueryEngine engine(tables, EstimatorOptions{});
    const AnatomyAggregateEstimator scalar_est(tables, scalar);
    EstimatorScratch scratch;
    std::vector<AnatomyQueryEngine::GroupAggregatePartial> got;
    Rng shuffle_rng(l);

    // Sensitive predicates shaped so both mass paths run (postings for one
    // value, prefix histograms for half the domain as one run), plus all
    // values but two. Each with and without a QI predicate; zero-QI queries
    // walk every row.
    const Code domain = static_cast<Code>(3 * l);
    std::vector<Code> all_but_two;
    for (Code v = 0; v < domain; ++v) {
      if (v != 1 && v != 4) all_but_two.push_back(v);
    }
    std::vector<CountQuery> queries;
    for (const AttributePredicate& sensitive :
         {AttributePredicate(0, {1}), AttributePredicate(0, all_but_two),
          RangePredicate(0, 0, domain / 2 - 1)}) {
      CountQuery q;
      q.sensitive_predicate = sensitive;
      queries.push_back(q);
      q.qi_predicates.push_back(RangePredicate(1, 10, 40));
      queries.push_back(q);
    }
    for (int qd : {1, 3}) {
      for (bool ranges : {false, true}) {
        for (double sel : {0.02, 0.3}) {
          const std::vector<CountQuery> grid =
              GridQueries(pub.md, qd, sel, /*count=*/4,
                          static_cast<uint64_t>(100 * l + 10 * qd + ranges),
                          ranges);
          queries.insert(queries.end(), grid.begin(), grid.end());
        }
      }
    }

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t measure : {0u, 1u, 2u, 3u}) {
        for (bool need_sum : {false, true}) {
          SCOPED_TRACE("l=" + std::to_string(l) + " query=" +
                       std::to_string(qi) + " measure=" +
                       std::to_string(measure) + " sum=" +
                       std::to_string(need_sum));
          const CountQuery& q = queries[qi];
          const auto want = ScanSizeClassPartials(tables, q, need_sum, measure);
          engine.CollectSizeClassPartials(q, need_sum, measure, scratch, &got);
          EXPECT_TRUE(got == want);
          EXPECT_LE(got.size(), static_cast<size_t>(l));

          // The oracle itself agrees with the scalar reference estimator.
          AggregateQuery aq;
          aq.predicates = q;
          aq.kind = need_sum ? AggregateKind::kSum : AggregateKind::kCount;
          aq.measure_qi = measure;
          const double value = FoldValue(want, need_sum);
          EXPECT_TRUE(WithinRel(value, scalar_est.Estimate(aq)));

          // Shuffled, or split into k group ranges like a k-node fleet: the
          // fold gives the same bits.
          std::vector<AnatomyQueryEngine::GroupAggregatePartial> shuffled =
              want;
          for (size_t i = shuffled.size(); i > 1; --i) {
            std::swap(shuffled[i - 1], shuffled[shuffle_rng.NextBounded(i)]);
          }
          EXPECT_EQ(FoldValue(shuffled, need_sum), value);
          for (GroupId k : {1u, 2u, 4u, 8u}) {
            std::vector<AnatomyQueryEngine::GroupAggregatePartial> chunks;
            for (GroupId c = 0; c < k; ++c) {
              std::vector<bool> include(m, false);
              std::fill(include.begin() + c * m / k,
                        include.begin() + (c + 1) * m / k, true);
              const auto part =
                  ScanSizeClassPartials(tables, q, need_sum, measure, include);
              chunks.insert(chunks.end(), part.begin(), part.end());
            }
            EXPECT_EQ(FoldValue(chunks, need_sum), value) << "chunks=" << k;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ SIMD tiers --

TEST(SimdTest, WordKernelsMatchScalarAcrossTiers) {
  // Exercise CountWords/AndCountWords directly on adversarial word
  // patterns at every supported tier; the dispatch must never change the
  // integer result.
  std::vector<uint64_t> a, b;
  uint64_t x = 0x243f6a8885a308d3ULL;  // deterministic pseudo-random words
  for (size_t i = 0; i < 133; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    a.push_back(x);
    b.push_back(~x ^ (x >> 1));
  }
  a.push_back(~0ULL);
  b.push_back(~0ULL);
  a.push_back(0);
  b.push_back(~0ULL);

  const simd::Tier original = simd::ActiveTier();
  ASSERT_TRUE(simd::SetTier(simd::Tier::kScalar));
  std::vector<uint64_t> want_count, want_and;
  for (size_t n = 0; n <= a.size(); ++n) {
    want_count.push_back(simd::CountWords(a.data(), n));
    want_and.push_back(simd::AndCountWords(a.data(), b.data(), n));
  }
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::SetTier(tier)) continue;  // unsupported on this machine
    for (size_t n = 0; n <= a.size(); ++n) {
      EXPECT_EQ(simd::CountWords(a.data(), n), want_count[n])
          << simd::TierName(tier) << " n=" << n;
      EXPECT_EQ(simd::AndCountWords(a.data(), b.data(), n), want_and[n])
          << simd::TierName(tier) << " n=" << n;
    }
  }
  ASSERT_TRUE(simd::SetTier(original));
}

TEST(SimdTest, EstimatesAreBitIdenticalAcrossTiers) {
  const AnatomizedCensus census = MakeAnatomizedCensus(3000, 4, 6, 57);
  const AnatomyEstimator estimator(census.tables);
  const std::vector<CountQuery> queries =
      GridQueries(census.dataset.microdata, 2, 0.1, 20, 71, true);

  const simd::Tier original = simd::ActiveTier();
  ASSERT_TRUE(simd::SetTier(simd::Tier::kScalar));
  std::vector<double> want(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    want[i] = estimator.Estimate(queries[i]);
  }
  ASSERT_TRUE(simd::SetTier(simd::BestSupportedTier()));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(estimator.Estimate(queries[i]), want[i]) << "query " << i;
  }
  ASSERT_TRUE(simd::SetTier(original));
}

TEST(PredicateCacheTest, KillSwitchBuildsNoCache) {
  obs::Counter* misses =
      obs::MetricRegistry::Global().GetCounter("query.predcache.misses");
  const uint64_t m0 = misses->value();

  const AnatomizedCensus census = MakeAnatomizedCensus(1500, 3, 4, 31);
  EstimatorOptions off;
  off.predcache.enabled = false;
  const AnatomyEstimator disabled(census.tables, off);
  const AnatomyEstimator enabled(census.tables);

  const std::vector<CountQuery> queries =
      GridQueries(census.dataset.microdata, 2, 0.1, 10, 41, false);
  std::vector<double> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i] = disabled.Estimate(queries[i]);
  }
  // Disabled: the predcache counters never move.
  EXPECT_EQ(misses->value(), m0);

  // Enabled: same answers, and the cache actually engaged.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(enabled.Estimate(queries[i]), expected[i]) << "query " << i;
  }
  EXPECT_GT(misses->value(), m0);
}

TEST(PredicateCacheTest, DisabledMetricsStillServeCorrectBitmaps) {
  // With metrics globally off the cache must still function (counters are
  // simply not incremented) and answers must be bit-identical.
  const AnatomizedCensus census = MakeAnatomizedCensus(1500, 3, 4, 33);
  const AnatomyEstimator estimator(census.tables);
  const std::vector<CountQuery> queries =
      GridQueries(census.dataset.microdata, 2, 0.1, 10, 43, false);

  std::vector<double> baseline(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    baseline[i] = estimator.Estimate(queries[i]);
  }
  obs::SetMetricsEnabled(false);
  const AnatomyEstimator dark(census.tables);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(dark.Estimate(queries[i]), baseline[i]) << "query " << i;
    EXPECT_EQ(estimator.Estimate(queries[i]), baseline[i]) << "query " << i;
  }
  obs::SetMetricsEnabled(true);
}

// ------------------------------------------- Memory-substrate sweeps ----

TEST(MemorySubstrateSweepTest, ArenaAndSummaryTogglesAreBitIdentical) {
  // The arena changes where bytes live and the occupancy summary changes
  // which zero words get inspected; neither may change a single estimate
  // bit. Sweep all four (arena, summary) configurations over a mixed
  // COUNT/SUM workload and demand exact double equality against the
  // as-built configuration.
  const AnatomizedCensus census = MakeAnatomizedCensus(3000, 4, 6, 91);
  const Microdata& md = census.dataset.microdata;
  const std::vector<CountQuery> base =
      GridQueries(md, /*qd=*/2, /*s=*/0.08, /*count=*/30, 97, true);
  std::vector<AggregateQuery> queries;
  for (size_t i = 0; i < base.size(); ++i) {
    AggregateQuery q;
    q.predicates = base[i];
    q.kind = i % 2 == 0 ? AggregateKind::kCount : AggregateKind::kSum;
    q.measure_qi = i % md.d();
    queries.push_back(q);
  }

  const bool arena_before = arena::Enabled();
  const bool summary_before = Bitmap::SummaryEnabled();

  std::vector<double> baseline;
  for (int arena_on = 1; arena_on >= 0; --arena_on) {
    for (int summary_on = 1; summary_on >= 0; --summary_on) {
      arena::SetEnabled(arena_on != 0);
      Bitmap::SetSummaryEnabled(summary_on != 0);
      // Fresh estimator per configuration so its index structures are built
      // under exactly this (arena, summary) setting.
      const AnatomyAggregateEstimator estimator(census.tables);
      std::vector<double> got(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        got[i] = estimator.Estimate(queries[i]);
      }
      if (baseline.empty()) {
        baseline = got;
        continue;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << "arena=" << arena_on << " summary=" << summary_on << " query "
            << i;
      }
    }
  }

  arena::SetEnabled(arena_before);
  Bitmap::SetSummaryEnabled(summary_before);
}

TEST(MemorySubstrateSweepTest, SummaryGuidedIterationVisitsIdenticalBits) {
  // Direct iteration-order check on adversarial bitmaps: clustered runs,
  // isolated bits, word boundaries. The guided walk must produce the same
  // index sequence as the linear walk, for both full and ranged walks, and
  // AndCountRange must be integer-identical.
  const bool summary_before = Bitmap::SummaryEnabled();
  const size_t n = 5000;
  Bitmap sparse(n);
  for (size_t i : {size_t{0}, size_t{63}, size_t{64}, size_t{1000},
                   size_t{1001}, size_t{1023}, size_t{1024}, size_t{4999}}) {
    sparse.Set(i);
  }
  for (size_t i = 2048; i < 2304; ++i) sparse.Set(i);  // one clustered run
  Bitmap mask(n);
  for (size_t i = 0; i < n; i += 3) mask.Set(i);

  Bitmap conj;
  Bitmap::SetSummaryEnabled(true);
  conj.AssignAnd(sparse, mask);
  ASSERT_TRUE(conj.has_summary());
  std::vector<size_t> guided;
  conj.ForEachSetBit([&](size_t i) { guided.push_back(i); });

  Bitmap::SetSummaryEnabled(false);
  Bitmap linear_conj;
  linear_conj.AssignAnd(sparse, mask);
  ASSERT_FALSE(linear_conj.has_summary());
  std::vector<size_t> linear;
  linear_conj.ForEachSetBit([&](size_t i) { linear.push_back(i); });
  EXPECT_EQ(guided, linear);

  for (const auto& [lo, hi] :
       std::vector<std::pair<size_t, size_t>>{{0, n},
                                              {1, n - 1},
                                              {60, 70},
                                              {2000, 2400},
                                              {2304, 4999},
                                              {4999, 5000}}) {
    std::vector<size_t> guided_range, linear_range;
    conj.ForEachSetBitInRange(lo, hi,
                              [&](size_t i) { guided_range.push_back(i); });
    linear_conj.ForEachSetBitInRange(
        lo, hi, [&](size_t i) { linear_range.push_back(i); });
    EXPECT_EQ(guided_range, linear_range) << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(Bitmap::AndCountRange(conj, mask, lo, hi),
              Bitmap::AndCountRange(linear_conj, mask, lo, hi))
        << "[" << lo << ", " << hi << ")";
  }

  Bitmap::SetSummaryEnabled(summary_before);
}

}  // namespace
}  // namespace anatomy
