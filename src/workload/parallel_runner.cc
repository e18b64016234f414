#include "workload/parallel_runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace anatomy {

ParallelRunner::ParallelRunner(const ParallelRunnerOptions& options)
    : pool_(options.num_threads) {
  worker_scratch_.resize(pool_.num_threads());
  worker_rngs_.reserve(pool_.num_threads());
  for (size_t w = 0; w < pool_.num_threads(); ++w) {
    worker_rngs_.push_back(Rng::ForStream(options.seed, w));
  }
  worker_staging_.resize(pool_.num_threads());
  worker_staging_u64_.resize(pool_.num_threads());
}

std::vector<double> ParallelRunner::Map(const std::vector<CountQuery>& queries,
                                        const QueryFn& fn) {
  // Every shard records into the same histogram: it shards its counters
  // per recording thread internally and merges on read, so the adds are
  // exact, commutative, and uncontended — the merged distribution is
  // independent of sharding (the registry never influences what is
  // computed; see the header's determinism contract).
  const bool metrics_on = obs::MetricsEnabled();
  obs::Histogram* latency_ns =
      metrics_on
          ? obs::MetricRegistry::Global().GetHistogram("query.latency_ns")
          : nullptr;
  obs::Counter* query_count =
      metrics_on ? obs::MetricRegistry::Global().GetCounter("query.count")
                 : nullptr;

  std::vector<double> results(queries.size());
  pool_.ParallelFor(queries.size(),
                    [&](size_t shard, size_t begin, size_t end) {
                      obs::ScopedSpan shard_span("query.shard", "query");
                      EstimatorScratch& scratch = worker_scratch_[shard];
                      Rng& rng = worker_rngs_[shard];
                      // Stage into shard-private storage so the hot loop
                      // never writes cache lines a neighboring shard's
                      // boundary writes share; one copy-back per shard.
                      std::vector<double>& staging = worker_staging_[shard];
                      staging.resize(end - begin);
                      for (size_t i = begin; i < end; ++i) {
                        ScopedTimer<obs::Histogram> timer(latency_ns);
                        staging[i - begin] = fn(queries[i], scratch, rng);
                      }
                      std::copy(staging.begin(), staging.end(),
                                results.begin() + begin);
                      if (query_count != nullptr) {
                        query_count->Increment(end - begin);
                      }
                    });
  return results;
}

std::vector<uint64_t> ParallelRunner::CountAll(
    const ExactEvaluator& exact, const std::vector<CountQuery>& queries) {
  std::vector<uint64_t> results(queries.size());
  pool_.ParallelFor(queries.size(),
                    [&](size_t shard, size_t begin, size_t end) {
                      EstimatorScratch& scratch = worker_scratch_[shard];
                      std::vector<uint64_t>& staging =
                          worker_staging_u64_[shard];
                      staging.resize(end - begin);
                      for (size_t i = begin; i < end; ++i) {
                        staging[i - begin] = exact.Count(queries[i], scratch);
                      }
                      std::copy(staging.begin(), staging.end(),
                                results.begin() + begin);
                    });
  return results;
}

StatusOr<MaterializedWorkload> ParallelRunner::Materialize(
    const Microdata& microdata, const ExactEvaluator& exact,
    const WorkloadOptions& options, const RunnerOptions& runner_options) {
  ANATOMY_ASSIGN_OR_RETURN(WorkloadGenerator generator,
                           WorkloadGenerator::Create(microdata, options));
  MaterializedWorkload out;
  out.queries.reserve(options.num_queries);
  out.actuals.reserve(options.num_queries);

  // Generate candidate batches from the single generator stream, evaluate
  // their ground truth in parallel, then accept/skip scanning in generation
  // order — exactly the sequential runner's semantics: the scan stops at
  // the final accepted query, precisely where the sequential generator
  // stops drawing, so zero_actual_skipped and the consecutive-skip streak
  // match it on the same seed (asserted by parallel_query_test's
  // differential stress test). Candidates oversampled past that point are
  // discarded, and the discard is counted in oversampled_discarded so the
  // accounting is auditable.
  size_t consecutive_skips = 0;
  std::vector<CountQuery> batch;
  while (out.queries.size() < options.num_queries) {
    const size_t remaining = options.num_queries - out.queries.size();
    // Oversample a little so one round usually suffices despite skips.
    const size_t batch_size = remaining + remaining / 4 + 16;
    batch.clear();
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) batch.push_back(generator.Next());
    const std::vector<uint64_t> actuals = CountAll(exact, batch);
    size_t scanned = 0;
    for (; scanned < batch.size() && out.queries.size() < options.num_queries;
         ++scanned) {
      if (actuals[scanned] == 0) {
        ++out.zero_actual_skipped;
        if (++consecutive_skips > runner_options.max_consecutive_skips) {
          return Status::FailedPrecondition(
              "workload keeps producing empty-answer queries; raise s or qd");
        }
        continue;
      }
      consecutive_skips = 0;
      out.queries.push_back(std::move(batch[scanned]));
      out.actuals.push_back(actuals[scanned]);
    }
    out.oversampled_discarded += batch.size() - scanned;
  }
  return out;
}

StatusOr<ParallelWorkloadResult> ParallelRunner::RunWorkload(
    const Microdata& microdata, const AnatomizedTables& anatomized,
    const GeneralizedTable& generalized, const WorkloadOptions& options,
    const RunnerOptions& runner_options) {
  ExactEvaluator exact(microdata);
  ANATOMY_ASSIGN_OR_RETURN(
      MaterializedWorkload workload,
      Materialize(microdata, exact, options, runner_options));

  AnatomyEstimator anatomy_estimator(anatomized, runner_options.estimator);
  GeneralizationEstimator generalization_estimator(generalized);

  // Estimator throughput from the shared latency histogram's deltas across
  // the two estimate passes (same derivation as the sequential runner).
  obs::Histogram* latency_ns =
      obs::MetricsEnabled()
          ? obs::MetricRegistry::Global().GetHistogram("query.latency_ns")
          : nullptr;
  const uint64_t latency_count0 = latency_ns ? latency_ns->count() : 0;
  const uint64_t latency_sum0 = latency_ns ? latency_ns->sum() : 0;

  // Parallel serving can't tick mid-pass (the engine is single-writer), so
  // the SLO windows advance once per estimate pass on the same virtual
  // clock the sequential runner uses: the latency histogram's sum.
  auto slo_tick = [&] {
    if (runner_options.slo == nullptr) return;
    runner_options.slo->Tick(latency_ns != nullptr ? latency_ns->sum() : 0);
  };

  ParallelWorkloadResult result;
  result.anatomy_estimates = EstimateAll(anatomy_estimator, workload.queries);
  slo_tick();
  result.generalization_estimates =
      EstimateAll(generalization_estimator, workload.queries);
  slo_tick();
  result.actuals = std::move(workload.actuals);

  if (latency_ns != nullptr) {
    const uint64_t dc = latency_ns->count() - latency_count0;
    const uint64_t dns = latency_ns->sum() - latency_sum0;
    if (dns > 0) {
      result.summary.estimator_qps =
          static_cast<double>(dc) / (static_cast<double>(dns) * 1e-9);
    }
  }

  // Sequential reduction in query order: bit-identical to RunWorkload().
  double anatomy_total = 0.0;
  double generalization_total = 0.0;
  for (size_t i = 0; i < result.actuals.size(); ++i) {
    const double actual = static_cast<double>(result.actuals[i]);
    anatomy_total += std::abs(result.anatomy_estimates[i] - actual) / actual;
    generalization_total +=
        std::abs(result.generalization_estimates[i] - actual) / actual;
  }
  result.summary.queries_evaluated = result.actuals.size();
  result.summary.zero_actual_skipped = workload.zero_actual_skipped;
  result.summary.anatomy_error =
      anatomy_total / static_cast<double>(result.actuals.size());
  result.summary.generalization_error =
      generalization_total / static_cast<double>(result.actuals.size());
  return result;
}

}  // namespace anatomy
