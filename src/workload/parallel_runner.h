// Parallel query serving: shards a workload's queries across a fixed pool
// of worker threads, each owning a private EstimatorScratch and a private
// Rng stream (Rng::ForStream(seed, shard), i.e. seeded via
// SplitMix64(seed ^ shard)).
//
// Determinism contract: result[i] is a pure function of queries[i] and the
// immutable estimator, so per-query outputs are bit-identical for ANY
// thread count — sharding only decides who computes what, never what is
// computed. Aggregates (average errors) are reduced sequentially in query
// order after the parallel phase, so they are bit-identical to the
// sequential runner's accumulation too. The per-worker rng streams exist
// for future stochastic estimators; anything drawn from stream w is
// reproducible from (seed, w) alone.

#ifndef ANATOMY_WORKLOAD_PARALLEL_RUNNER_H_
#define ANATOMY_WORKLOAD_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/anatomy_estimator.h"
#include "query/estimator_scratch.h"
#include "query/exact_evaluator.h"
#include "query/generalization_estimator.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace anatomy {

struct ParallelRunnerOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t num_threads = 0;
  /// Base seed of the per-worker rng streams (stream w = ForStream(seed, w)).
  uint64_t seed = 7;
};

/// A query set with precomputed nonzero ground-truth answers: exactly the
/// queries the sequential runner would have evaluated, in the same order.
struct MaterializedWorkload {
  std::vector<CountQuery> queries;
  std::vector<uint64_t> actuals;  // aligned with queries; all > 0
  /// Zero-answer queries skipped before the final accepted one — identical
  /// to the sequential runner's count on the same seed (asserted by
  /// parallel_query_test's differential stress test).
  size_t zero_actual_skipped = 0;
  /// Oversampled candidates generated after the final accepted query. They
  /// were evaluated but never scanned, exactly as the sequential generator
  /// never draws them — reported so the discard is auditable rather than
  /// silent; never part of zero_actual_skipped or the skip streak.
  size_t oversampled_discarded = 0;
};

struct ParallelWorkloadResult {
  /// Same aggregate metrics as the sequential RunWorkload, bit-identical.
  WorkloadResult summary;
  /// Per-query outputs, aligned with the materialized query order.
  std::vector<double> anatomy_estimates;
  std::vector<double> generalization_estimates;
  std::vector<uint64_t> actuals;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(const ParallelRunnerOptions& options = {});

  size_t num_threads() const { return pool_.num_threads(); }

  /// Evaluates fn(queries[i], scratch, rng) for every query, sharded across
  /// the pool; scratch and rng are the executing shard's. result[i] always
  /// corresponds to queries[i].
  using QueryFn =
      std::function<double(const CountQuery&, EstimatorScratch&, Rng&)>;
  std::vector<double> Map(const std::vector<CountQuery>& queries,
                          const QueryFn& fn);

  /// Per-query estimates from any estimator exposing
  /// `double Estimate(const CountQuery&, EstimatorScratch&) const`.
  template <typename Estimator>
  std::vector<double> EstimateAll(const Estimator& estimator,
                                  const std::vector<CountQuery>& queries) {
    return Map(queries,
               [&estimator](const CountQuery& query, EstimatorScratch& scratch,
                            Rng&) { return estimator.Estimate(query, scratch); });
  }

  /// Exact ground-truth counts, in parallel.
  std::vector<uint64_t> CountAll(const ExactEvaluator& exact,
                                 const std::vector<CountQuery>& queries);

  /// Generates `options.num_queries` queries with nonzero actual answers.
  /// Query generation is sequential (one generator stream), only the
  /// ground-truth evaluation is parallel, so the materialized set is
  /// identical to what the sequential runner consumes — including the
  /// consecutive-zero-answer failure mode.
  StatusOr<MaterializedWorkload> Materialize(
      const Microdata& microdata, const ExactEvaluator& exact,
      const WorkloadOptions& options, const RunnerOptions& runner_options = {});

  /// Parallel equivalent of RunWorkload(): same queries, same average
  /// errors (bit-identical), plus the per-query answers.
  StatusOr<ParallelWorkloadResult> RunWorkload(
      const Microdata& microdata, const AnatomizedTables& anatomized,
      const GeneralizedTable& generalized, const WorkloadOptions& options,
      const RunnerOptions& runner_options = {});

 private:
  ThreadPool pool_;
  /// Shard-indexed worker state, reused across calls (warm scratches).
  std::vector<EstimatorScratch> worker_scratch_;
  std::vector<Rng> worker_rngs_;
  /// Per-shard result staging: workers write their shard's outputs here and
  /// copy once into the shared result vector, so the hot loop never stores
  /// into cache lines adjacent shards are writing (false sharing at shard
  /// boundaries of results[i]).
  std::vector<std::vector<double>> worker_staging_;
  std::vector<std::vector<uint64_t>> worker_staging_u64_;
};

}  // namespace anatomy

#endif  // ANATOMY_WORKLOAD_PARALLEL_RUNNER_H_
