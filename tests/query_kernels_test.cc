// Property tests for the group-clustered block kernel: across a grid of
// dataset shapes, privacy parameters, and workload configurations, the
// kernel must agree with the retained scalar reference within 1e-9
// relative on every COUNT/SUM/AVG estimate and equal the fold of the
// row-scan oracle's size-class partials exactly, and the per-group match
// counts must be integer-identical. Plus the zero-QI-predicate fast path
// and the engine's huge-page block layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "common/huge_page_block.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "query/aggregate.h"
#include "query/anatomy_estimator.h"
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

double FoldValue(std::span<const AnatomyQueryEngine::GroupAggregatePartial> p,
                 bool need_sum) {
  const CanonicalFoldResult fold = CanonicalFold(p);
  return need_sum ? fold.sum : fold.count;
}

// ------------------------------------------------------- Grid properties --

TEST(QueryKernelsPropertyTest, KernelsMatchScalarReferenceAcrossGrid) {
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;

  for (int d : {3, 5}) {
    for (int l : {4, 10}) {
      for (uint64_t seed : {11u, 12u}) {
        const AnatomizedCensus census = MakeAnatomizedCensus(4000, d, l, seed);
        const Microdata& md = census.dataset.microdata;
        const AnatomyAggregateEstimator scalar_est(census.tables, scalar);
        const AnatomyAggregateEstimator kernel_est(census.tables);

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
                EXPECT_TRUE(WithinRel(ref, ker))
                    << "d=" << d << " l=" << l << " seed=" << seed
                    << " qd=" << qd << " ranges=" << ranges << " query=" << i
                    << " kind=" << static_cast<int>(kind) << ": scalar=" << ref
                    << " kernel=" << ker;
              }
            }
          }
        }
      }
    }
  }
}

TEST(QueryKernelsPropertyTest, KernelEqualsOracleFoldAcrossGrid) {
  // The same grid: every COUNT and SUM of the kernel is the fold of the
  // row-scan oracle's size-class partials, bit for bit.
  for (int d : {3, 5}) {
    for (int l : {4, 10}) {
      for (uint64_t seed : {11u, 12u}) {
        const AnatomizedCensus census = MakeAnatomizedCensus(4000, d, l, seed);
        const Microdata& md = census.dataset.microdata;
        const AnatomyAggregateEstimator kernel_est(census.tables);
        for (int qd : {2, 0}) {
          for (bool ranges : {false, true}) {
            const std::vector<CountQuery> queries = GridQueries(
                md, qd, /*s=*/0.05, /*count=*/40, seed + 100 * qd + ranges,
                ranges);
            for (size_t i = 0; i < queries.size(); ++i) {
              for (bool need_sum : {false, true}) {
                AggregateQuery q;
                q.predicates = queries[i];
                q.kind = need_sum ? AggregateKind::kSum : AggregateKind::kCount;
                q.measure_qi = static_cast<size_t>(i) % md.d();
                const double want = FoldValue(
                    ScanSizeClassPartials(census.tables, q.predicates, need_sum,
                                          q.measure_qi),
                    need_sum);
                EXPECT_EQ(kernel_est.Estimate(q), want)
                    << "d=" << d << " l=" << l << " seed=" << seed
                    << " qd=" << qd << " ranges=" << ranges << " query=" << i
                    << " sum=" << need_sum;
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

// ------------------------------------------------------ The block kernel --

// A publication shaped to reach every branch of the block kernel: groups of
// 1 to 5000 rows in shuffled order (one wider than a 4096-row block, many
// straddling words and blocks), n a multiple of neither 64 nor 4096, a QI
// column constant over runs of groups (a point predicate on it leaves whole
// blocks without a match), and measures with a negative base, values beyond
// 2^53 and a domain too wide for u8 codes (`wide_domain` sizes it). Build()
// accepts any partition, l-diverse or not.
struct ShapedPublication {
  Microdata md;
  AnatomizedTables tables;
};

ShapedPublication MakeShapedPublication(const std::vector<uint32_t>& sizes,
                                        Code wide_domain, uint64_t seed) {
  std::vector<AttributeDef> defs;
  defs.push_back(MakeCategorical("Zone", 8));
  defs.push_back(MakeNumerical("Balance", 64, /*base=*/-1000, /*step=*/37));
  defs.push_back(MakeNumerical("Huge", 16, /*base=*/-(int64_t{1} << 62),
                               /*step=*/int64_t{1} << 58));
  defs.push_back(MakeNumerical("Wide", wide_domain, /*base=*/-7, /*step=*/3));
  defs.push_back(MakeCategorical("Disease", 12));
  Rng rng(seed);
  std::vector<uint32_t> order = sizes;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  RowId n = 0;
  for (uint32_t size : order) n += size;
  std::vector<RowId> rows(n);
  for (RowId r = 0; r < n; ++r) rows[r] = r;
  for (RowId i = n; i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  Partition partition;
  std::vector<GroupId> group_of(n);
  RowId next = 0;
  for (uint32_t size : order) {
    partition.AddGroup(std::span(rows).subspan(next, size));
    for (RowId i = next; i < next + size; ++i) {
      group_of[rows[i]] = static_cast<GroupId>(partition.num_groups() - 1);
    }
    next += size;
  }
  Microdata md;
  md.table = Table(std::make_shared<Schema>(std::move(defs)));
  for (RowId r = 0; r < n; ++r) {
    const Code row[5] = {
        static_cast<Code>((group_of[r] / 3) % 8),
        static_cast<Code>(rng.NextBounded(64)),
        static_cast<Code>(rng.NextBounded(16)),
        static_cast<Code>(rng.NextBounded(static_cast<uint64_t>(wide_domain))),
        static_cast<Code>(rng.NextBounded(12))};
    md.table.AppendRow(row);
  }
  md.qi_columns = {0, 1, 2, 3};
  md.sensitive_column = 4;
  auto tables = AnatomizedTables::Build(md, partition);
  ANATOMY_CHECK_OK(tables.status());
  return ShapedPublication{std::move(md), std::move(tables).value()};
}

TEST(BlockKernelTest, EstimatesEqualTheFoldOfTheRowScanOracle) {
  const std::vector<uint32_t> kSizes = {1,  2,  3,   10,  11,   63,
                                        64, 65, 127, 700, 4096, 5000};
  std::vector<uint32_t> sizes;
  for (int copy = 0; copy < 3; ++copy) {
    sizes.insert(sizes.end(), kSizes.begin(), kSizes.end());
  }
  std::vector<ShapedPublication> pubs;
  pubs.push_back(MakeShapedPublication(sizes, /*wide_domain=*/300, 5));
  // Codes beyond 2^16; a small table keeps the 70000-bitmap index small.
  pubs.push_back(MakeShapedPublication({1, 5, 64, 65, 90}, 70000, 6));

  for (size_t pi = 0; pi < pubs.size(); ++pi) {
    const ShapedPublication& pub = pubs[pi];
    const AnatomizedTables& tables = pub.tables;
    const Code wide = tables.qit().schema().attribute(3).domain_size;
    const AnatomyAggregateEstimator estimator(tables);
    const AnatomyQueryEngine engine(tables, EstimatorOptions{});

    std::vector<CountQuery> queries;
    for (const AttributePredicate& sensitive :
         {AttributePredicate(0, {3}), RangePredicate(0, 0, 8),
          AttributePredicate(0, {-1, 2, 5, 12, 40}),
          RangePredicate(0, 0, 11)}) {
      const std::vector<std::vector<AttributePredicate>> qi_sets = {
          {},
          {AttributePredicate(0, {5})},
          {AttributePredicate(0, {1, 6}), RangePredicate(1, 10, 40)},
          {RangePredicate(1, 0, 20), AttributePredicate(2, {0, 3, 4, 15}),
           RangePredicate(3, wide / 3, wide - 1)},
          {AttributePredicate(3, {1, 2, wide - 1}), AttributePredicate(0, {2})},
          {AttributePredicate(3, {-3, wide})},  // out of domain: no row
          {RangePredicate(0, 0, 7)},            // every row
      };
      for (const auto& qi : qi_sets) {
        CountQuery q;
        q.sensitive_predicate = sensitive;
        q.qi_predicates = qi;
        queries.push_back(q);
      }
    }

    EstimatorScratch scratch;
    std::vector<AnatomyQueryEngine::GroupAggregatePartial> got;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const CountQuery& q = queries[qi];
      EXPECT_EQ(engine.GroupMatchCounts(q, scratch),
                [&] {
                  std::vector<uint64_t> counts(tables.num_groups(), 0);
                  for (RowId r = 0; r < tables.num_rows(); ++r) {
                    bool match = true;
                    for (const AttributePredicate& p : q.qi_predicates) {
                      match = match &&
                              p.Matches(tables.qit().at(r, p.qi_index()));
                    }
                    if (match) ++counts[tables.group_of_row(r)];
                  }
                  return counts;
                }())
          << "pub=" << pi << " query=" << qi;
      for (int measure = -1; measure < 4; ++measure) {
        const bool need_sum = measure >= 0;
        const size_t m = need_sum ? static_cast<size_t>(measure) : 0;
        SCOPED_TRACE("pub=" + std::to_string(pi) +
                     " query=" + std::to_string(qi) +
                     " measure=" + std::to_string(measure));
        const auto oracle = ScanSizeClassPartials(tables, q, need_sum, m);
        engine.CollectSizeClassPartials(q, need_sum, m, scratch, &got);
        EXPECT_TRUE(got == oracle);
        const double value = FoldValue(oracle, need_sum);
        AggregateQuery aq;
        aq.predicates = q;
        aq.kind = need_sum ? AggregateKind::kSum : AggregateKind::kCount;
        aq.measure_qi = m;
        EXPECT_EQ(estimator.Estimate(aq, scratch), value);
      }
    }
  }
}

TEST(BlockKernelTest, GroupsCarryTheirCountsAcrossBlocks) {
  // Rows in QIT order, groups [0, 4090) [4090, 4100) [4100, 8200)
  // [8200, 8292): so bit i is row i, and "Row" codes name single bits.
  // Group 1 straddles the first block boundary and group 2 spans the
  // second; the last block is partial, and n is no multiple of 64.
  const std::vector<uint32_t> sizes = {4090, 10, 4100, 92};
  RowId n = 0;
  for (uint32_t size : sizes) n += size;
  std::vector<AttributeDef> defs;
  defs.push_back(MakeNumerical("Row", static_cast<Code>(n)));
  defs.push_back(MakeNumerical("Value", 50, /*base=*/-20, /*step=*/7));
  defs.push_back(MakeCategorical("Disease", 5));
  Microdata md;
  md.table = Table(std::make_shared<Schema>(std::move(defs)));
  for (RowId r = 0; r < n; ++r) {
    const Code row[3] = {static_cast<Code>(r), static_cast<Code>(r * 7 % 50),
                         static_cast<Code>(r % 5)};
    md.table.AppendRow(row);
  }
  md.qi_columns = {0, 1};
  md.sensitive_column = 2;
  Partition partition;
  RowId next = 0;
  for (uint32_t size : sizes) {
    std::vector<RowId> group(size);
    std::iota(group.begin(), group.end(), next);
    partition.AddGroup(group);
    next += size;
  }
  auto built = AnatomizedTables::Build(md, partition);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const AnatomizedTables& tables = built.value();
  const AnatomyQueryEngine engine(tables, EstimatorOptions{});
  const AnatomyAggregateEstimator estimator(tables);
  EstimatorScratch scratch;

  // Row sets whose matches end before a block without any: the block
  // after must still close the group that straddles into it.
  const std::vector<std::pair<Code, Code>> row_ranges = {
      {4090, 4095}, {4085, 4093}, {4100, 8191}, {8150, 8200},
      {8190, 8291}, {0, 4095},    {4096, 4099}, {4099, 8200}};
  for (const auto& [lo, hi] : row_ranges) {
    for (const AttributePredicate& sensitive :
         {AttributePredicate(0, {1}), RangePredicate(0, 0, 4)}) {
      CountQuery q;
      q.sensitive_predicate = sensitive;
      q.qi_predicates.push_back(RangePredicate(0, lo, hi));
      std::vector<uint64_t> want_matches(sizes.size(), 0);
      for (RowId r = static_cast<RowId>(lo); r <= static_cast<RowId>(hi);
           ++r) {
        ++want_matches[tables.group_of_row(r)];
      }
      EXPECT_EQ(engine.GroupMatchCounts(q, scratch), want_matches)
          << "rows [" << lo << ", " << hi << "]";
      for (bool need_sum : {false, true}) {
        const auto oracle = ScanSizeClassPartials(tables, q, need_sum, 1);
        std::vector<AnatomyQueryEngine::GroupAggregatePartial> got;
        engine.CollectSizeClassPartials(q, need_sum, 1, scratch, &got);
        EXPECT_TRUE(got == oracle)
            << "rows [" << lo << ", " << hi << "] sum=" << need_sum;
        AggregateQuery aq;
        aq.predicates = q;
        aq.kind = need_sum ? AggregateKind::kSum : AggregateKind::kCount;
        aq.measure_qi = 1;
        EXPECT_EQ(estimator.Estimate(aq, scratch), FoldValue(oracle, need_sum))
            << "rows [" << lo << ", " << hi << "] sum=" << need_sum;
      }
    }
  }
}

// ------------------------------------------------------ Huge-page block --

TEST(HugePageBlockTest, AlignedRoundedAndEngineArraysDisjoint) {
  constexpr size_t kHuge = HugePageBlock::kHugePageBytes;
  for (size_t bytes : {size_t{1}, kHuge - 1, kHuge, kHuge + 1, 3 * kHuge + 7}) {
    HugePageBlock block(bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block.data()) % kHuge, 0u);
    EXPECT_EQ(block.size() % kHuge, 0u);
    EXPECT_GE(block.size(), bytes);
    EXPECT_LT(block.size() - bytes, kHuge);
    // Mapped zeroed and writable to the last rounded-up byte.
    EXPECT_EQ(block.data()[0], std::byte{0});
    EXPECT_EQ(block.data()[block.size() - 1], std::byte{0});
    block.data()[block.size() - 1] = std::byte{1};
  }
  EXPECT_EQ(HugePageBlock(0).data(), nullptr);
  HugePageBlock from(10);
  std::byte* const mapping = from.data();
  HugePageBlock to(std::move(from));
  EXPECT_EQ(to.data(), mapping);
  EXPECT_EQ(from.data(), nullptr);

  // The engine's arrays: u8 and u32 code columns, prefix histograms on.
  const ShapedPublication pub =
      MakeShapedPublication({1, 5, 64, 65, 4096, 5000}, 300, 9);
  const AnatomizedTables& tables = pub.tables;
  std::vector<Code> qi_domains;
  for (size_t c = 0; c + 1 < tables.qit().num_columns(); ++c) {
    qi_domains.push_back(tables.qit().schema().attribute(c).domain_size);
  }
  const RowId n = tables.num_rows();
  const GroupId m = tables.num_groups();
  const Code sens = tables.st().schema().attribute(1).domain_size;
  const EngineLayout layout = ComputeEngineLayout(n, m, qi_domains, sens);
  EXPECT_EQ(layout.group_start.bytes, (m + 1) * sizeof(RowId));
  EXPECT_EQ(layout.class_slot.bytes, m * sizeof(uint32_t));
  EXPECT_EQ(layout.prefix_mass.bytes, size_t{12} * m * sizeof(uint32_t));
  ASSERT_EQ(layout.codes.size(), 4u);
  EXPECT_EQ(layout.codes[0].bytes, n * sizeof(uint8_t));   // domain 8
  EXPECT_EQ(layout.codes[3].bytes, n * sizeof(uint32_t));  // domain 300
  std::vector<EngineLayout::Range> ranges = {
      layout.group_start, layout.block_group, layout.class_slot,
      layout.prefix_mass};
  ranges.insert(ranges.end(), layout.codes.begin(), layout.codes.end());
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].offset % 64, 0u) << "range " << i;
    const size_t end = ranges[i].offset + ranges[i].bytes;
    EXPECT_LE(end, i + 1 < ranges.size() ? ranges[i + 1].offset : layout.bytes)
        << "range " << i;
  }
  const AnatomyQueryEngine engine(tables, EstimatorOptions{});
  EXPECT_EQ(reinterpret_cast<uintptr_t>(engine.block().data()) % kHuge, 0u);
  EXPECT_GE(engine.block().size(), layout.bytes);
  EXPECT_LT(engine.block().size() - layout.bytes, kHuge);

  // Past the memory gate the block holds no prefix histograms; the scalar
  // reference builds no block at all.
  EXPECT_EQ(ComputeEngineLayout(100, GroupId{1} << 20, {8}, 17)
                .prefix_mass.bytes,
            0u);
  EstimatorOptions scalar;
  scalar.mode = KernelMode::kScalar;
  EXPECT_EQ(AnatomyQueryEngine(tables, scalar).block().size(), 0u);
}

}  // namespace
}  // namespace anatomy
