// The three workloads of the end-to-end benchmark and the shared set-up they
// run on. See README.md for what each one measures and why.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "anatomy/rce.h"
#include "anatomy/sharded_anatomizer.h"
#include "bench.h"
#include "common/rng.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "dist/scatter_gather.h"
#include "obs/metrics.h"
#include "privacy/ldiversity.h"
#include "query/aggregate.h"
#include "query/group_kernels.h"
#include "serve/catalog.h"
#include "serve/session.h"
#include "spans.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using anatomy::AggregateKind;
using anatomy::AggregateQuery;
using anatomy::AnatomizedTables;
using anatomy::AnatomyAggregateEstimator;
using anatomy::AnatomyQueryEngine;
using anatomy::Code;
using anatomy::EstimatorScratch;
using anatomy::Microdata;
using anatomy::RowId;

constexpr RowId kRows = 1'000'000;
constexpr int kL = 10;
constexpr int kQiCount = 5;       // OCC-5
constexpr size_t kNodes = 4;      // catalog nodes (= shards of an epoch)
constexpr size_t kShards = 4;     // in-memory ShardedAnatomizer shards
constexpr size_t kThreads = 4;    // shard workers, checkers, scaling probe
// bundle_query's timed clients. One, not kThreads: four busy threads on a
// four-vCPU host shared with other work measured the neighbours as much as
// the code. query.scaling_4t still times four clients.
constexpr size_t kClients = 1;
constexpr int kSetupReps = 2;
constexpr size_t kBundleQueries = 256;  // also bundle_query's rate window
constexpr size_t kServeWindowCalls = 64;  // serve_fresh's rate window
constexpr size_t kErrorSample = 1024;
constexpr size_t kProbeQueries = 16;    // served queries checked per epoch
constexpr size_t kTracedPerEpoch = 64;  // traced path queries per epoch
constexpr double kScalingSeconds = 2.0;
constexpr double kTolerance = 1e-9;
const char* const kPub = "occ";

// Every generated input derives from the run seed through one of these.
enum : uint64_t {
  kDataTag = 0xDA7A,
  kCatalogTag = 0xCA7A,
  kFreshTag = 0xF8E5,
  kEpochTag = 0xE90C,
  kProbeTag = 0x960B,
};

// The relative-error samples are the same 1024 queries for every seed, so
// rel_error_pct moves with the data and the publication, not with the luck
// of which queries were drawn. The same holds for the 256 replayed bundle
// queries: a few heavy range queries in a seed's draw moved bundle_query's
// throughput by 25% and its p99 by 75%.
constexpr uint64_t kSampleSeed = 0x5A3E;
constexpr uint64_t kBundleSeed = 0xB0D1;

uint64_t Derive(uint64_t seed, uint64_t tag) {
  return anatomy::SplitMix64(seed ^ tag);
}

/// The index-th seed of a tagged stream. Mixing twice keeps small seeds and
/// small indices from colliding (seed ^ (tag + index) would give seeds 1, 2
/// and 3 the same four data chunks in another order).
uint64_t Derive(uint64_t seed, uint64_t tag, uint64_t index) {
  return anatomy::SplitMix64(Derive(seed, tag) ^ index);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T ValueOrDie(anatomy::StatusOr<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Linear interpolation between the closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const size_t j = std::min(i + 1, v.size() - 1);
  return v[i] + (v[j] - v[i]) * (pos - static_cast<double>(i));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Calls per second in consecutive windows of `window` calls of one closed
/// loop whose calls ran back to back with these latencies. A trailing
/// partial window is dropped unless there is no full one.
std::vector<double> WindowRates(const std::vector<double>& latency_us,
                                size_t window) {
  std::vector<double> rates;
  double elapsed_us = 0.0;
  size_t calls = 0;
  for (double us : latency_us) {
    elapsed_us += us;
    if (++calls == window) {
      rates.push_back(static_cast<double>(calls) * 1e6 / elapsed_us);
      elapsed_us = 0.0;
      calls = 0;
    }
  }
  if (rates.empty() && calls > 0 && elapsed_us > 0.0) {
    rates.push_back(static_cast<double>(calls) * 1e6 / elapsed_us);
  }
  return rates;
}

/// VmHWM of this process.
double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t CounterValue(const char* name) {
  return anatomy::obs::MetricRegistry::Global().GetCounter(name)->value();
}

uint64_t HistogramSum(const char* name) {
  return anatomy::obs::MetricRegistry::Global().GetHistogram(name)->sum();
}

/// Runs fn(i, thread) for i in [0, n) on kThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) fn(i, t);
    });
  }
  for (auto& th : threads) th.join();
}

bool Close(double got, double want) {
  return std::abs(got - want) <= kTolerance * std::max(1.0, std::abs(want));
}

/// Self-check and operation bookkeeping: every operation or check counts as
/// attempted, and every error, non-exact answer or failed check as failed.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) { Add(1, ok ? 0 : 1, what); }
  void Add(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && reported_++ < 20) {
      std::fprintf(stderr, "perfbench: check failed (%llu): %s\n",
                   static_cast<unsigned long long>(failed), what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int reported_ = 0;
};

/// Per-run state: the tracer, the checks, and the per-layer samples that
/// come from counters rather than spans.
struct Ctx {
  explicit Ctx(const RunOptions& o) : options(o), tracer(o.trace) {
    buf = tracer.NewBuffer();
  }
  const RunOptions& options;
  Tracer tracer;
  SpanBuffer* buf = nullptr;
  Checks checks;
  std::vector<double> allocs_per_row;
  std::vector<double> bucketize_ms, group_draw_ms, residue_ms;
  std::vector<double> rce_over_lb;
  std::vector<double> page_io;
  std::vector<double> partials;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

// ---------------------------------------------------------------- inputs --

/// The 1M-row CENSUS table, generated as kThreads independently seeded
/// chunks in parallel and concatenated, then projected to OCC-5.
anatomy::ExperimentDataset GenerateDataset(uint64_t seed) {
  std::vector<anatomy::Table> parts(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      parts[t] = anatomy::GenerateCensus(static_cast<RowId>(kRows / kThreads),
                                         Derive(seed, kDataTag, t));
    });
  }
  for (auto& th : threads) th.join();
  anatomy::Table census(parts[0].schema_ptr());
  census.Reserve(kRows);
  std::vector<Code> row;
  for (const anatomy::Table& part : parts) {
    for (RowId r = 0; r < part.num_rows(); ++r) {
      part.GetRow(r, row);
      census.AppendRow(row);
    }
  }
  return ValueOrDie(anatomy::MakeExperimentDataset(
                        census, anatomy::SensitiveFamily::kOccupation, kQiCount),
                    "OCC-5 projection");
}

anatomy::MixedWorkloadGenerator MakeGenerator(const Microdata& md, bool range,
                                              int qd, uint64_t seed) {
  anatomy::MixedWorkloadOptions options;
  options.base.qd = qd;
  options.base.s = 0.05;
  options.base.seed = seed;
  options.base.range_predicates = range;
  options.sum_fraction = 0.5;
  return ValueOrDie(anatomy::MixedWorkloadGenerator::Create(md, options),
                    "workload generator");
}

std::vector<AggregateQuery> MakeQueries(const Microdata& md, bool range, int qd,
                                        uint64_t seed, size_t n) {
  auto gen = MakeGenerator(md, range, qd, seed);
  std::vector<AggregateQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// Range queries, qd = 4: the bundle_query kind.
std::vector<AggregateQuery> RangeQueries(const Microdata& md, uint64_t seed,
                                         size_t n) {
  return MakeQueries(md, /*range=*/true, 4, seed, n);
}

/// Section 6.1 point-set queries, qd = 5: the serve_fresh and publish kind.
std::vector<AggregateQuery> PointQueries(const Microdata& md, uint64_t seed,
                                         size_t n) {
  return MakeQueries(md, /*range=*/false, 5, seed, n);
}

/// Exact answers by one scan per query. Same predicate order and the same
/// row-order summation as ExactAggregate, so the doubles are identical;
/// lookup tables instead of per-row predicate searches make it fast enough
/// for a 1024-query sample at 1M rows.
struct Exact {
  double value = 0.0;
  uint64_t rows = 0;  // rows matching the predicates
};

Exact ScanExact(const Microdata& md, const AggregateQuery& q) {
  auto lut = [&](const anatomy::AttributePredicate& p, Code domain) {
    std::vector<uint8_t> t(static_cast<size_t>(domain), 0);
    for (Code v : p.values()) {
      if (v >= 0 && v < domain) t[static_cast<size_t>(v)] = 1;
    }
    return t;
  };
  const auto& preds = q.predicates.qi_predicates;
  const std::vector<uint8_t> s_lut =
      lut(q.predicates.sensitive_predicate, md.sensitive_attribute().domain_size);
  const std::vector<Code>& s_col = md.table.column(md.sensitive_column);
  std::vector<std::vector<uint8_t>> luts;
  std::vector<const std::vector<Code>*> cols;
  for (const auto& p : preds) {
    luts.push_back(lut(p, md.qi_attribute(p.qi_index()).domain_size));
    cols.push_back(&md.table.column(md.qi_columns[p.qi_index()]));
  }
  const bool sum = q.kind == AggregateKind::kSum;
  const anatomy::AttributeDef& measure = md.qi_attribute(sum ? q.measure_qi : 0);
  std::vector<double> value(static_cast<size_t>(measure.domain_size));
  for (Code c = 0; c < measure.domain_size; ++c) {
    value[static_cast<size_t>(c)] = anatomy::NumericValue(measure, c);
  }
  const std::vector<Code>& m_col =
      md.table.column(md.qi_columns[sum ? q.measure_qi : 0]);
  uint64_t count = 0;
  double total = 0.0;
  for (RowId r = 0; r < md.n(); ++r) {
    if (!s_lut[static_cast<size_t>(s_col[r])]) continue;
    bool match = true;
    for (size_t i = 0; match && i < preds.size(); ++i) {
      match = luts[i][static_cast<size_t>((*cols[i])[r])] != 0;
    }
    if (!match) continue;
    ++count;
    if (sum) total += value[static_cast<size_t>(m_col[r])];
  }
  return {sum ? total : static_cast<double>(count), count};
}

std::vector<Exact> ExactAnswers(const Microdata& md,
                                const std::vector<AggregateQuery>& qs,
                                Ctx& ctx) {
  std::vector<Exact> out(qs.size());
  ParallelFor(qs.size(), [&](size_t i, size_t) { out[i] = ScanExact(md, qs[i]); });
  // The scan must agree bit for bit with the library's own table scan.
  for (size_t i = 0; i < std::min<size_t>(2, qs.size()); ++i) {
    ctx.checks.Expect(out[i].value == anatomy::ExactAggregate(md, qs[i]),
                      "exact scan differs from ExactAggregate");
  }
  return out;
}

/// Queries matching fewer rows (0.1% of n) are left out of the relative
/// error: a few such queries, whose error is a handful of rows over a
/// handful of rows, would otherwise decide the mean.
constexpr uint64_t kMinSupportRows = kRows / 1000;

/// Mean |estimate - exact| / exact in percent (the paper's Figure 4
/// measure) over the queries with at least kMinSupportRows matching rows.
double RelErrorPct(const std::vector<double>& est,
                   const std::vector<Exact>& exact) {
  double total = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    if (exact[i].rows < kMinSupportRows || exact[i].value == 0.0) continue;
    total += std::abs(est[i] - exact[i].value) / std::abs(exact[i].value);
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * total / static_cast<double>(n);
}

double EngineAnswer(const AnatomyQueryEngine& engine, const AggregateQuery& q,
                    EstimatorScratch& scratch) {
  const bool sum = q.kind == AggregateKind::kSum;
  const AnatomyQueryEngine::CountSum r =
      engine.EstimateCountSum(q.predicates, sum, q.measure_qi, scratch);
  return sum ? r.sum : r.count;
}

std::vector<double> EngineAnswers(const AnatomyQueryEngine& engine,
                                  const std::vector<AggregateQuery>& qs) {
  std::vector<double> out(qs.size());
  std::vector<EstimatorScratch> scratch(kThreads);
  ParallelFor(qs.size(), [&](size_t i, size_t t) {
    out[i] = EngineAnswer(engine, qs[i], scratch[t]);
  });
  return out;
}

// ------------------------------------------------------------ the stack --

/// One in-memory publication: step (a) of an epoch.
struct MemPublication {
  std::unique_ptr<AnatomizedTables> tables;
  std::unique_ptr<AnatomyAggregateEstimator> estimator;
};

/// Everything a set-up builds. Every workload runs on the same stack.
struct Stack {
  anatomy::ExperimentDataset dataset;
  MemPublication mem;
  std::unique_ptr<anatomy::serve::PublicationCatalog> catalog;
  anatomy::serve::ServePublication* pub = nullptr;
  /// The single-node view of the catalog's current epoch, and an engine
  /// over it (predicate cache off: it answers reference and sample queries
  /// that never repeat).
  std::unique_ptr<AnatomizedTables> merged;
  std::unique_ptr<AnatomyQueryEngine> merged_engine;

  const Microdata& md() const { return dataset.microdata; }
};

void CheckPublication(const AnatomizedTables& tables, size_t shards, Ctx& ctx,
                      const char* what) {
  const anatomy::Status ldiv = anatomy::VerifyAnatomizedLDiversity(tables, kL);
  ctx.checks.Expect(ldiv.ok(), std::string(what) + ": " + ldiv.ToString());
  const RowId n = tables.num_rows();
  const double lb = anatomy::RceLowerBound(n, kL);
  const double rce = anatomy::AnatomyRce(tables);
  const double factor = 1.0 + static_cast<double>(shards) * (kL - 1) /
                                  static_cast<double>(n);
  ctx.checks.Expect(n == kRows && rce <= lb * factor * (1.0 + kTolerance),
                    std::string(what) + ": RCE above LB * (1 + S(l-1)/n)");
  ctx.rce_over_lb.push_back(rce / lb);
}

/// Step (a): ShardedAnatomizer::Run (S = 4, 4 threads), then
/// AnatomizedTables::Build, then the query engine (inside the estimator).
MemPublication PublishInMemory(const Microdata& md, uint64_t seed, Ctx& ctx) {
  ScopedSpan span(ctx.buf, "publish.mem");
  MemPublication out;
  anatomy::ShardedAnatomizer anatomizer(
      {.l = kL, .seed = seed, .shards = kShards, .num_threads = kThreads});
  anatomy::ShardedAnatomizeResult result;
  {
    const bool traced = ctx.tracer.enabled();
    const uint64_t b0 = HistogramSum("anatomize.phase.bucketize_ns");
    const uint64_t d0 = HistogramSum("anatomize.phase.group_draw_ns");
    const uint64_t r0 = HistogramSum("anatomize.phase.residue_ns");
    const uint64_t a0 = AllocCount();
    SetAllocCounting(traced);
    {
      ScopedSpan s(ctx.buf, "anatomy.sharded_run");
      result = ValueOrDie(anatomizer.Run(md), "ShardedAnatomizer::Run");
    }
    SetAllocCounting(false);
    if (traced) {
      ctx.allocs_per_row.push_back(static_cast<double>(AllocCount() - a0) /
                                   static_cast<double>(md.n()));
      ctx.bucketize_ms.push_back(
          (HistogramSum("anatomize.phase.bucketize_ns") - b0) * 1e-6);
      ctx.group_draw_ms.push_back(
          (HistogramSum("anatomize.phase.group_draw_ns") - d0) * 1e-6);
      ctx.residue_ms.push_back(
          (HistogramSum("anatomize.phase.residue_ns") - r0) * 1e-6);
    }
  }
  {
    ScopedSpan s(ctx.buf, "anatomy.tables_build");
    out.tables = std::make_unique<AnatomizedTables>(ValueOrDie(
        AnatomizedTables::Build(md, result.partition), "AnatomizedTables::Build"));
  }
  {
    ScopedSpan s(ctx.buf, "query.engine_build");
    out.estimator = std::make_unique<AnatomyAggregateEstimator>(*out.tables);
  }
  return out;
}

/// Step (b) or the initial epoch: times `publish` and records the storage
/// counters it moves.
double TimedEpochPublish(Ctx& ctx, const std::function<void()>& publish) {
  const uint64_t io0 =
      CounterValue("storage.disk.reads") + CounterValue("storage.disk.writes");
  const uint64_t hits0 = CounterValue("storage.pool.hits");
  const uint64_t misses0 = CounterValue("storage.pool.misses");
  const int64_t t0 = NowNs();
  {
    ScopedSpan s(ctx.buf, "dist.publish_epoch");
    publish();
  }
  const double seconds = Seconds(NowNs() - t0);
  ctx.page_io.push_back(static_cast<double>(
      CounterValue("storage.disk.reads") + CounterValue("storage.disk.writes") -
      io0));
  ctx.pool_hits += CounterValue("storage.pool.hits") - hits0;
  ctx.pool_misses += CounterValue("storage.pool.misses") - misses0;
  return seconds;
}

/// Rebuilds the single-node view of the catalog's current epoch.
void RefreshMerged(Stack& st, Ctx& ctx) {
  st.merged_engine.reset();
  {
    ScopedSpan s(ctx.buf, "dist.merged_tables");
    st.merged = std::make_unique<AnatomizedTables>(ValueOrDie(
        st.pub->cluster()->BuildMergedTables(), "BuildMergedTables"));
  }
  ScopedSpan s(ctx.buf, "query.engine_build");
  anatomy::EstimatorOptions options;
  options.predcache.enabled = false;
  st.merged_engine = std::make_unique<AnatomyQueryEngine>(*st.merged, options);
}

struct SetupTimes {
  double total_s = 0.0;
  double publish_mem_s = 0.0;
  double epoch_s = 0.0;
};

/// Generation, the in-memory publication (a), the 4-node catalog entry
/// (its first epoch) and the single-node view with its index.
std::unique_ptr<Stack> Setup(Ctx& ctx, SetupTimes* times) {
  const uint64_t seed = ctx.options.seed;
  auto st = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  {
    ScopedSpan s(ctx.buf, "data.generate");
    st->dataset = GenerateDataset(seed);
  }
  const int64_t t1 = NowNs();
  st->mem = PublishInMemory(st->md(), Derive(seed, kEpochTag), ctx);
  const int64_t t2 = NowNs();
  st->catalog = std::make_unique<anatomy::serve::PublicationCatalog>();
  anatomy::serve::ServePublicationOptions options;
  options.name = kPub;
  options.nodes = kNodes;
  options.l = kL;
  options.seed = Derive(seed, kCatalogTag);
  times->epoch_s = TimedEpochPublish(ctx, [&] {
    st->pub = ValueOrDie(st->catalog->Add(options, st->md()), "catalog Add");
  });
  RefreshMerged(*st, ctx);
  times->total_s = Seconds(NowNs() - t0);
  times->publish_mem_s = Seconds(t2 - t1);
  CheckPublication(*st->mem.tables, kShards, ctx, "in-memory publication");
  CheckPublication(*st->merged, kNodes, ctx, "catalog epoch");
  return st;
}

// ------------------------------------------------------ traced probes --

/// Sends each query down one of four paths into the serving stack, chosen
/// by (index + rotation) % 4, so every layer is timed on queries of the same
/// distribution without one path warming another's caches:
///   0  Session::Query                          span serve.session
///   1  ScatterGatherEstimator::Estimate        span dist.estimate
///   2  DistNode::Serve on every shard node, then CanonicalFold
///                                   spans dist.node_serve, dist.fold
///   3  the single-node engine                  span query.estimate_{count,sum}
/// `single_node` is the engine path 3 uses; null means the merged engine.
void TraceQueryPaths(Stack& st, Ctx& ctx, anatomy::serve::Session& session,
                     const std::vector<AggregateQuery>& qs, size_t rotation,
                     uint64_t op_base, const AnatomyAggregateEstimator* single_node,
                     anatomy::Rng& rng) {
  anatomy::DistCluster* cluster = st.pub->cluster();
  EstimatorScratch scratch;
  std::vector<AnatomyQueryEngine::GroupAggregatePartial> partials;
  for (size_t i = 0; i < qs.size(); ++i) {
    const AggregateQuery& q = qs[i];
    const bool sum = q.kind == AggregateKind::kSum;
    const uint64_t op = op_base + i;
    switch ((i + rotation) % 4) {
      case 0: {
        anatomy::StatusOr<anatomy::PartialEstimate> r = [&] {
          ScopedSpan s(ctx.buf, "serve.session", op);
          return session.Query(kPub, q);
        }();
        ctx.checks.Expect(r.ok() && r.value().exact, "traced session query");
        break;
      }
      case 1: {
        anatomy::StatusOr<anatomy::PartialEstimate> r = [&] {
          ScopedSpan s(ctx.buf, "dist.estimate", op);
          return st.pub->estimator()->Estimate(q);
        }();
        ctx.checks.Expect(r.ok() && r.value().exact, "traced dist estimate");
        break;
      }
      case 2: {
        partials.clear();
        anatomy::CanonicalFoldResult fold;
        bool ok = true;
        {
          ScopedSpan s(ctx.buf, "dist.fanout", op);
          for (size_t n = 0; n < cluster->num_nodes(); ++n) {
            if (cluster->record().nodes[n].root == anatomy::kInvalidPageId) {
              continue;
            }
            anatomy::DistNode::ServeResult r = [&] {
              ScopedSpan s2(ctx.buf, "dist.node_serve", op);
              return cluster->node(n)->Serve(
                  q.predicates, sum, q.measure_qi,
                  std::numeric_limits<uint64_t>::max(), rng);
            }();
            ok = ok && r.status.ok() && !r.late;
            partials.insert(partials.end(), r.partials.begin(), r.partials.end());
          }
          ScopedSpan s3(ctx.buf, "dist.fold", op);
          fold = anatomy::CanonicalFold(partials);
        }
        ctx.partials.push_back(static_cast<double>(partials.size()));
        ctx.checks.Expect(
            ok && Close(sum ? fold.sum : fold.count,
                        EngineAnswer(*st.merged_engine, q, scratch)),
            "node fan-out + fold differs from the merged engine");
        break;
      }
      default: {
        ScopedSpan s(ctx.buf, sum ? "query.estimate_sum" : "query.estimate_count",
                     op);
        const double v = single_node != nullptr
                             ? single_node->Estimate(q, scratch)
                             : EngineAnswer(*st.merged_engine, q, scratch);
        ctx.checks.Expect(std::isfinite(v), "single-node estimate");
        break;
      }
    }
  }
}

/// ShardedExternalAnatomizer::RunPublished on 4 fresh node-sized disks and
/// pools: the prepare phase of an epoch swap, outside the cluster.
void ExternalPublishProbe(const Microdata& md, uint64_t seed, Ctx& ctx) {
  std::vector<std::unique_ptr<anatomy::SimulatedDisk>> disks;
  std::vector<std::unique_ptr<anatomy::BufferPool>> pools;
  std::vector<anatomy::Disk*> disk_ptrs;
  std::vector<anatomy::BufferPool*> pool_ptrs;
  for (size_t i = 0; i < kNodes; ++i) {
    disks.push_back(std::make_unique<anatomy::SimulatedDisk>());
    pools.push_back(std::make_unique<anatomy::BufferPool>(disks.back().get()));
    disk_ptrs.push_back(disks.back().get());
    pool_ptrs.push_back(pools.back().get());
  }
  anatomy::ShardedExternalAnatomizer anatomizer(
      {.l = kL, .seed = seed, .shards = kNodes, .num_threads = 0});
  ScopedSpan s(ctx.buf, "anatomy.external_publish");
  const auto r = anatomizer.RunPublished(md, disk_ptrs, pool_ptrs);
  ctx.checks.Expect(r.ok(), "external publish probe");
}

/// DistNode::Activate re-run on every active node's current manifest: the
/// activate phase of an epoch swap.
void ActivateProbe(Stack& st, Ctx& ctx) {
  anatomy::DistCluster* cluster = st.pub->cluster();
  ScopedSpan all(ctx.buf, "dist.activate_all");
  for (size_t i = 0; i < cluster->num_nodes(); ++i) {
    anatomy::DistNode* node = cluster->node(i);
    if (!node->active()) continue;
    // Activate starts by dropping the node's state, manifest included.
    const anatomy::StorageManifest manifest = node->manifest();
    ScopedSpan s(ctx.buf, "dist.activate");
    const anatomy::Status status = node->Activate(
        manifest, node->epoch(), node->group_count(), node->group_offset(),
        cluster->qi_defs(), cluster->sensitive_def());
    ctx.checks.Expect(status.ok(), "node re-activation");
  }
}

// --------------------------------------------------------- bundle loop --

struct LoopStats {
  uint64_t calls = 0;
  uint64_t mismatches = 0;
  int64_t wall_ns = 0;
  std::vector<double> latency_us;
};

/// `clients` closed-loop threads, each with its own scratch, replaying `qs`
/// against `est` for `seconds`; every answer must equal `expected` exactly.
LoopStats RunClients(const AnatomyAggregateEstimator& est,
                     const std::vector<AggregateQuery>& qs,
                     const std::vector<double>& expected, size_t clients,
                     double seconds, Ctx& ctx) {
  struct PerThread {
    uint64_t calls = 0;
    uint64_t mismatches = 0;
    int64_t end_ns = 0;
    std::vector<int64_t> latency_ns;
  };
  std::vector<PerThread> per(clients);
  std::atomic<size_t> ready{0};
  std::atomic<int64_t> start{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      PerThread& me = per[t];
      SpanBuffer* buf = ctx.tracer.NewBuffer();
      EstimatorScratch scratch;
      size_t idx = t * qs.size() / clients;
      // Warm this thread's scratch before the clock starts.
      for (size_t w = 0; w < 16; ++w) est.Estimate(qs[(idx + w) % qs.size()], scratch);
      me.latency_ns.reserve(1 << 20);
      if (ready.fetch_add(1) + 1 == clients) start.store(NowNs());
      while (start.load() == 0) std::this_thread::yield();
      const int64_t deadline =
          start.load() + static_cast<int64_t>(seconds * 1e9);
      ScopedSpan span(buf, "query.client", t);
      int64_t now = NowNs();
      while (now < deadline) {
        const size_t i = idx++ % qs.size();
        const double v = est.Estimate(qs[i], scratch);
        const int64_t end = NowNs();
        me.latency_ns.push_back(end - now);
        if (v != expected[i]) ++me.mismatches;
        now = end;
      }
      me.calls = me.latency_ns.size();
      me.end_ns = now;
    });
  }
  for (auto& th : threads) th.join();
  LoopStats out;
  int64_t end = 0;
  for (const PerThread& p : per) {
    out.calls += p.calls;
    out.mismatches += p.mismatches;
    end = std::max(end, p.end_ns);
    for (int64_t ns : p.latency_ns) {
      out.latency_us.push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  out.wall_ns = end - start.load();
  return out;
}

// ----------------------------------------------------------- results --

struct Report {
  // End-to-end.
  std::vector<double> setup_s;
  std::vector<double> publish_mem_s;
  std::vector<double> epoch_s;
  double ops = 0.0;
  std::vector<double> rates;  // ops per second, per window or per epoch
  std::vector<double> latency_us;
  std::vector<double> rel_error_pct;
  // Per-layer values that come from outside the span list.
  double scaling_4t = 0.0;
  double hit_ratio = 0.0;
  uint64_t coordinator_queries = 0;
  uint64_t hedges = 0;
  uint64_t retries = 0;
  double timed_busy_ns = 0.0;  // summed thread time of the timed phase
  size_t timed_spans = 0;
};

/// Deltas, from construction to Finish(), of the library counters behind the
/// query-path per-layer metrics.
class QueryCounters {
 public:
  QueryCounters()
      : hits_(CounterValue("query.predcache.hits")),
        misses_(CounterValue("query.predcache.misses")),
        queries_(CounterValue("dist.queries")),
        hedges_(CounterValue("dist.hedges")),
        retries_(CounterValue("dist.retries")) {}

  void Finish(Report& rep) const {
    const double hits =
        static_cast<double>(CounterValue("query.predcache.hits") - hits_);
    const double misses =
        static_cast<double>(CounterValue("query.predcache.misses") - misses_);
    rep.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    rep.coordinator_queries = CounterValue("dist.queries") - queries_;
    rep.hedges = CounterValue("dist.hedges") - hedges_;
    rep.retries = CounterValue("dist.retries") - retries_;
  }

 private:
  uint64_t hits_, misses_, queries_, hedges_, retries_;
};

std::vector<Metric> EndToEnd(const Report& r) {
  double mean_rel = 0.0;
  for (double v : r.rel_error_pct) {
    mean_rel += v / static_cast<double>(r.rel_error_pct.size());
  }
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"ops_per_s", Median(r.rates), "1/s"},
      {"op_p50_us", Quantile(r.latency_us, 0.5), "us"},
      {"op_p99_us", Quantile(r.latency_us, 0.99), "us"},
      {"rel_error_pct", mean_rel, "%"},
      {"publish_mem_s", Median(r.publish_mem_s), "s"},
      {"epoch_swap_s", Median(r.epoch_s), "s"},
  };
}

/// Cost of recording one span on this machine, for the tracing-overhead
/// estimate.
double SpanCostNs() {
  Tracer probe(true);
  SpanBuffer* buf = probe.NewBuffer();
  constexpr int kSpans = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) ScopedSpan s(buf, "probe", 0);
  return static_cast<double>(NowNs() - t0) / kSpans;
}

std::vector<Metric> PerLayer(const Report& r, const Ctx& ctx,
                             const std::vector<Span>& spans,
                             double span_cost_ns) {
  auto med = [&](const char* name) { return Median(DurationsMicros(spans, name)); };
  auto med_s = [&](const char* name) { return med(name) * 1e-6; };
  std::map<uint64_t, double> node_max;
  std::vector<double> node_sum, node_slowest;
  for (const auto& [op, us] : PerOpMicros(spans, "dist.node_serve", &node_max)) {
    node_sum.push_back(us);
    node_slowest.push_back(node_max[op]);
  }
  const std::vector<double> est = DurationsMicros(spans, "dist.estimate");
  const double session_us = med("serve.session");
  const double estimate_p50 = Quantile(est, 0.5);
  const double node_serve_us = Median(node_sum);
  const double fold_us = med("dist.fold");
  // session residual = session_us - estimate_p50, so what the layers leave
  // unexplained is the coordinator's time outside node calls and the fold.
  const double session_residual = session_us - estimate_p50;
  const double activate_s = med_s("dist.activate_all");
  const double external_s = med_s("anatomy.external_publish");
  const double per_kq = r.coordinator_queries == 0
                            ? 0.0
                            : 1000.0 / static_cast<double>(r.coordinator_queries);
  const double pool_lookups = static_cast<double>(ctx.pool_hits + ctx.pool_misses);
  return {
      {"serve.session_us", session_us, "us"},
      {"serve.unattributed_us",
       session_us - (node_serve_us + fold_us + session_residual), "us"},
      {"dist.estimate_p50_us", estimate_p50, "us"},
      {"dist.estimate_p99_us", Quantile(est, 0.99), "us"},
      {"dist.node_serve_us", node_serve_us, "us"},
      {"dist.node_serve_max_us", Median(node_slowest), "us"},
      {"dist.fold_us", fold_us, "us"},
      {"dist.partials_per_query", Median(ctx.partials), "count"},
      {"dist.hedges", static_cast<double>(r.hedges) * per_kq, "1/kq"},
      {"dist.retries", static_cast<double>(r.retries) * per_kq, "1/kq"},
      {"dist.activate_s", activate_s, "s"},
      {"dist.unattributed_s", Median(r.epoch_s) - (external_s + activate_s), "s"},
      {"query.count_us", med("query.estimate_count"), "us"},
      {"query.sum_us", med("query.estimate_sum"), "us"},
      {"query.predcache_hit_ratio", r.hit_ratio, "ratio"},
      {"query.scaling_4t", r.scaling_4t, "x"},
      {"query.engine_build_s", med_s("query.engine_build"), "s"},
      {"anatomy.sharded_run_s", med_s("anatomy.sharded_run"), "s"},
      {"anatomy.phase.bucketize_ms", Median(ctx.bucketize_ms), "ms"},
      {"anatomy.phase.group_draw_ms", Median(ctx.group_draw_ms), "ms"},
      {"anatomy.phase.residue_ms", Median(ctx.residue_ms), "ms"},
      {"anatomy.tables_build_s", med_s("anatomy.tables_build"), "s"},
      {"anatomy.heap_allocs_per_row", Median(ctx.allocs_per_row), "count"},
      {"anatomy.external_publish_s", external_s, "s"},
      {"anatomy.rce_over_lb", Median(ctx.rce_over_lb), "ratio"},
      {"storage.page_io_per_epoch", Median(ctx.page_io), "count"},
      {"storage.pool_hit_ratio",
       pool_lookups > 0 ? static_cast<double>(ctx.pool_hits) / pool_lookups : 0.0,
       "ratio"},
      {"data.generate_s", med_s("data.generate"), "s"},
      {"obs.trace_overhead_pct",
       r.timed_busy_ns > 0
           ? 100.0 * static_cast<double>(r.timed_spans) * span_cost_ns /
                 r.timed_busy_ns
           : 0.0,
       "%"},
  };
}

/// The traced run's extras: the span cost, every counter's and histogram's
/// delta over the run, and the traced end-to-end values for comparison with
/// an untraced run.
std::string TraceExtra(const anatomy::obs::MetricsSnapshot& before,
                       const anatomy::obs::MetricsSnapshot& after,
                       const std::vector<Metric>& traced_e2e,
                       double span_cost_ns) {
  std::map<std::string, uint64_t> base;
  for (const auto& c : before.counters) base[c.name] = c.value;
  std::string out = "{\"span_cost_ns\": " + std::to_string(span_cost_ns) +
                    ", \"counter_deltas\": {";
  bool first = true;
  for (const auto& c : after.counters) {
    out += (first ? "" : ", ") + ("\"" + c.name + "\": ") +
           std::to_string(c.value - base[c.name]);
    first = false;
  }
  std::map<std::string, std::pair<uint64_t, uint64_t>> hbase;
  for (const auto& h : before.histograms) hbase[h.name] = {h.count, h.sum};
  out += "}, \"histogram_deltas\": {";
  first = true;
  for (const auto& h : after.histograms) {
    out += (first ? "" : ", ") + ("\"" + h.name + "\": {\"count\": ") +
           std::to_string(h.count - hbase[h.name].first) +
           ", \"sum\": " + std::to_string(h.sum - hbase[h.name].second) + "}";
    first = false;
  }
  out += "}, \"traced_end_to_end\": {";
  first = true;
  for (const Metric& m : traced_e2e) {
    out += (first ? "" : ", ") + ("\"" + m.name + "\": ") + std::to_string(m.value);
    first = false;
  }
  return out + "}}";
}

// ------------------------------------------------------------ workloads --

anatomy::serve::TenantPolicy AnalystPolicy() {
  anatomy::serve::TenantPolicy policy;
  policy.publications = {kPub};
  return policy;
}

/// One client replaying 256 distinct range queries on the in-memory
/// publication; the predicate cache holds the whole working set.
void BundleQuery(Stack& st, Ctx& ctx, Report& rep) {
  const uint64_t seed = ctx.options.seed;
  const AnatomyAggregateEstimator& est = *st.mem.estimator;
  const std::vector<AggregateQuery> sample =
      RangeQueries(st.md(), kSampleSeed, kErrorSample);
  const std::vector<Exact> exact = ExactAnswers(st.md(), sample, ctx);
  std::vector<double> sample_est(sample.size());
  EstimatorScratch scratch;
  for (size_t i = 0; i < sample.size(); ++i) {
    sample_est[i] = est.Estimate(sample[i], scratch);
  }
  rep.rel_error_pct.push_back(RelErrorPct(sample_est, exact));
  // Two passes before the clock starts: the first warms the predicate cache
  // with the bundle's working set, the second must agree with it.
  const std::vector<AggregateQuery> bundle =
      RangeQueries(st.md(), kBundleSeed, kBundleQueries);
  std::vector<double> expected(bundle.size());
  for (size_t i = 0; i < bundle.size(); ++i) {
    expected[i] = est.Estimate(bundle[i], scratch);
  }
  for (size_t i = 0; i < bundle.size(); ++i) {
    ctx.checks.Expect(est.Estimate(bundle[i], scratch) == expected[i],
                      "bundle replay differs");
  }
  // Scalar reference on a sample of the bundle set.
  {
    anatomy::EstimatorOptions scalar_options;
    scalar_options.mode = anatomy::KernelMode::kScalar;
    AnatomyAggregateEstimator scalar(*st.mem.tables, scalar_options);
    for (size_t i = 0; i < 16; ++i) {
      ctx.checks.Expect(Close(expected[i], scalar.Estimate(bundle[i], scratch)),
                        "kernel estimate differs from the scalar reference");
    }
  }
  const QueryCounters counters;
  static_assert(kClients == 1, "WindowRates needs one back-to-back loop");
  LoopStats loop = RunClients(est, bundle, expected, kClients,
                              ctx.options.seconds, ctx);
  ctx.checks.Add(loop.calls, loop.mismatches, "bundle answers changed under load");
  rep.ops = static_cast<double>(loop.calls);
  rep.rates = WindowRates(loop.latency_us, kBundleQueries);  // whole passes
  rep.latency_us = std::move(loop.latency_us);
  rep.timed_busy_ns = static_cast<double>(loop.wall_ns) * kClients;
  rep.timed_spans = kClients;
  if (ctx.tracer.enabled()) {
    anatomy::serve::Session session("analyst", AnalystPolicy(), st.catalog.get());
    anatomy::Rng rng(Derive(seed, kProbeTag));
    for (size_t pass = 0; pass < 4; ++pass) {
      TraceQueryPaths(st, ctx, session, bundle, pass, pass * bundle.size(), &est,
                      rng);
    }
  }
  counters.Finish(rep);
}

/// One analyst session sending never-repeated point-set queries through the
/// 4-node catalog entry.
void ServeFresh(Stack& st, Ctx& ctx, Report& rep) {
  const uint64_t seed = ctx.options.seed;
  const std::vector<AggregateQuery> sample =
      PointQueries(st.md(), kSampleSeed, kErrorSample);
  rep.rel_error_pct.push_back(RelErrorPct(EngineAnswers(*st.merged_engine, sample),
                                          ExactAnswers(st.md(), sample, ctx)));
  anatomy::serve::Session session("analyst", AnalystPolicy(), st.catalog.get());
  auto gen = MakeGenerator(st.md(), /*range=*/false, 5, Derive(seed, kFreshTag));
  for (int i = 0; i < 16; ++i) {
    const auto r = session.Query(kPub, gen.Next());
    ctx.checks.Expect(r.ok() && r.value().exact, "warm-up query");
  }
  const QueryCounters counters;
  const size_t spans0 = ctx.tracer.size();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(ctx.options.seconds * 1e9);
  int64_t now = start;
  if (ctx.tracer.enabled()) {
    anatomy::Rng rng(Derive(seed, kProbeTag));
    uint64_t op = 0;
    while (now < deadline) {
      std::vector<AggregateQuery> batch;
      for (int i = 0; i < 16; ++i) batch.push_back(gen.Next());
      TraceQueryPaths(st, ctx, session, batch, 0, op, nullptr, rng);
      op += batch.size();
      now = NowNs();
    }
    rep.ops = static_cast<double>(op);
    rep.latency_us = DurationsMicros(ctx.tracer.Collect(), "serve.session");
  } else {
    std::vector<AggregateQuery> asked;
    std::vector<anatomy::StatusOr<anatomy::PartialEstimate>> answers;
    while (now < deadline) {
      asked.push_back(gen.Next());
      answers.push_back(session.Query(kPub, asked.back()));
      const int64_t end = NowNs();
      rep.latency_us.push_back(static_cast<double>(end - now) * 1e-3);
      now = end;
    }
    rep.ops = static_cast<double>(asked.size());
    // Every answer: OK, exact, and within 1e-9 of the single-node engine.
    const std::vector<double> want = EngineAnswers(*st.merged_engine, asked);
    uint64_t bad = 0;
    for (size_t i = 0; i < asked.size(); ++i) {
      const auto& a = answers[i];
      if (!a.ok() || !a.value().exact || !Close(a.value().value, want[i])) ++bad;
    }
    ctx.checks.Add(asked.size(), bad, "served answer not exact or off the reference");
  }
  // Traced runs rate the Session::Query calls alone, one path in four.
  rep.rates = WindowRates(rep.latency_us, kServeWindowCalls);
  rep.timed_busy_ns = static_cast<double>(now - start);
  rep.timed_spans = ctx.tracer.size() - spans0;
  counters.Finish(rep);
}

/// Repeated epochs on the same rows, each with a new seed: (a) in-memory
/// publish, then (b) the catalog's copy-on-write epoch swap, then an
/// untimed probe of the new epoch.
void Publish(Stack& st, Ctx& ctx, Report& rep) {
  const uint64_t seed = ctx.options.seed;
  const std::vector<AggregateQuery> sample =
      PointQueries(st.md(), kSampleSeed, kErrorSample);
  const std::vector<Exact> exact = ExactAnswers(st.md(), sample, ctx);
  anatomy::serve::Session session("analyst", AnalystPolicy(), st.catalog.get());
  auto gen = MakeGenerator(st.md(), /*range=*/false, 5, Derive(seed, kFreshTag));
  anatomy::Rng rng(Derive(seed, kProbeTag));
  const QueryCounters counters;
  // The setup's own epoch publish is not a swap: epoch_swap_s on this
  // workload is RepublishEpoch alone.
  rep.epoch_s.clear();
  rep.publish_mem_s.clear();
  const size_t spans0 = ctx.tracer.size();
  double timed_s = 0.0;
  for (uint64_t e = 1; e <= 2 || timed_s < ctx.options.seconds; ++e) {
    ScopedSpan epoch_span(ctx.buf, "publish.epoch", e);
    const int64_t t0 = NowNs();
    MemPublication mem = PublishInMemory(st.md(), Derive(seed, kEpochTag, e), ctx);
    const double mem_s = Seconds(NowNs() - t0);
    const double swap_s = TimedEpochPublish(ctx, [&] {
      const auto report = st.pub->RepublishEpoch();
      ctx.checks.Expect(report.ok() && report.value().activation_failures == 0,
                        "RepublishEpoch");
    });
    timed_s += mem_s + swap_s;
    rep.publish_mem_s.push_back(mem_s);
    rep.epoch_s.push_back(swap_s);
    rep.rates.push_back(1.0 / (mem_s + swap_s));
    rep.latency_us.push_back((mem_s + swap_s) * 1e6);

    // Untimed probe of the new epoch.
    CheckPublication(*mem.tables, kShards, ctx, "epoch in-memory publication");
    mem = MemPublication{};
    RefreshMerged(st, ctx);
    CheckPublication(*st.merged, kNodes, ctx, "epoch catalog publication");
    rep.rel_error_pct.push_back(
        RelErrorPct(EngineAnswers(*st.merged_engine, sample), exact));
    EstimatorScratch scratch;
    for (size_t i = 0; i < kProbeQueries; ++i) {
      const AggregateQuery q = gen.Next();
      const auto r = session.Query(kPub, q);
      ctx.checks.Expect(r.ok() && r.value().exact &&
                            Close(r.value().value,
                                  EngineAnswer(*st.merged_engine, q, scratch)),
                        "probe query on the new epoch");
    }
    if (ctx.tracer.enabled()) {
      ExternalPublishProbe(st.md(), Derive(seed, kProbeTag, e), ctx);
      ActivateProbe(st, ctx);
      std::vector<AggregateQuery> batch;
      for (size_t i = 0; i < kTracedPerEpoch; ++i) batch.push_back(gen.Next());
      TraceQueryPaths(st, ctx, session, batch, 0, e * 1'000'000, nullptr, rng);
    }
  }
  rep.ops = static_cast<double>(rep.epoch_s.size());
  rep.timed_busy_ns = timed_s * 1e9;
  rep.timed_spans = ctx.tracer.size() - spans0;
  counters.Finish(rep);
}

/// qps of 4 clients over qps of 1 client replaying the bundle set.
double ScalingProbe(Stack& st, Ctx& ctx) {
  const AnatomyAggregateEstimator& est = *st.mem.estimator;
  const std::vector<AggregateQuery> bundle =
      RangeQueries(st.md(), kBundleSeed, kBundleQueries);
  std::vector<double> expected(bundle.size());
  EstimatorScratch scratch;
  for (size_t i = 0; i < bundle.size(); ++i) expected[i] = est.Estimate(bundle[i], scratch);
  double qps[2];
  const size_t clients[2] = {1, kThreads};
  for (int k = 0; k < 2; ++k) {
    const LoopStats s = RunClients(est, bundle, expected, clients[k],
                                   kScalingSeconds, ctx);
    ctx.checks.Add(s.calls, s.mismatches, "bundle answers changed in scaling probe");
    qps[k] = static_cast<double>(s.calls) / Seconds(s.wall_ns);
  }
  return qps[1] / qps[0];
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  using Fn = void (*)(Stack&, Ctx&, Report&);
  const std::map<std::string, Fn> workloads = {
      {"bundle_query", BundleQuery},
      {"serve_fresh", ServeFresh},
      {"publish", Publish},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) Die("unknown workload '" + options.workload + "'");

  Ctx ctx(options);
  Report rep;
  const double span_cost_ns = ctx.tracer.enabled() ? SpanCostNs() : 0.0;
  const anatomy::obs::MetricsSnapshot before =
      anatomy::obs::MetricRegistry::Global().Snapshot();

  std::unique_ptr<Stack> stack;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    stack.reset();  // one stack alive at a time
    ScopedSpan span(ctx.buf, "setup", static_cast<uint64_t>(rep_i));
    SetupTimes times;
    stack = Setup(ctx, &times);
    rep.setup_s.push_back(times.total_s);
    rep.publish_mem_s.push_back(times.publish_mem_s);
    rep.epoch_s.push_back(times.epoch_s);
  }
  {
    ScopedSpan span(ctx.buf, options.workload.c_str());
    it->second(*stack, ctx, rep);
  }
  ctx.checks.Expect(rep.ops > 0, "no operation completed");

  RunResult out;
  if (ctx.tracer.enabled()) {
    if (options.workload != "publish") {
      ExternalPublishProbe(stack->md(), Derive(options.seed, kProbeTag), ctx);
      ActivateProbe(*stack, ctx);
    }
    rep.scaling_4t = ScalingProbe(*stack, ctx);
    const std::vector<Span> spans = ctx.tracer.Collect();
    out.metrics = PerLayer(rep, ctx, spans, span_cost_ns);
    if (!options.trace_out.empty()) {
      const std::string extra =
          TraceExtra(before, anatomy::obs::MetricRegistry::Global().Snapshot(),
                     EndToEnd(rep), span_cost_ns);
      if (!WriteTrace(options.trace_out, spans, extra)) {
        Die("cannot write " + options.trace_out);
      }
    }
  } else {
    out.metrics = EndToEnd(rep);
  }
  out.attempted = ctx.checks.attempted();
  out.failed = ctx.checks.failed();
  return out;
}

}  // namespace perfbench
