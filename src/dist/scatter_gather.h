// ScatterGatherEstimator: deadline-aware fan-out of COUNT/SUM aggregates
// over a DistCluster, with hedged retries and an explicit degradation
// ladder. The ladder's timing is VIRTUAL (see dist/node.h): node attempts
// return the duration a request would have taken and the coordinator does
// the deadline arithmetic, so a full chaos sweep runs in milliseconds and
// is bit-reproducible from a seed. The ladder runs node by node on the
// calling thread; then, in wall time, the answering nodes compute their
// partials concurrently: the first on the calling thread, the rest on the
// estimator's thread pool, except those no worker has started by the time
// the calling thread is free, which it computes itself.
//
// Degradation ladder (DESIGN.md §6), from best to worst:
//
//   exact     every shard-bearing node answered within the deadline
//             (possibly thanks to a hedge). The merged estimate is
//             BIT-IDENTICAL to the size-class fold over the merged
//             single-node tables — distribution is invisible.
//   hedged    same, but at least one answer came from a hedged duplicate
//             request (dist.hedge_wins). Still exact.
//   partial   some node(s) timed out or were unavailable. The answer is the
//             exact fold over the responding nodes only, labeled with the
//             covered row mass and a hard interval bounding what the
//             missing rows could contribute. Never silently wrong.
//   unavailable  no node responded: a clean kUnavailable error, no number.
//
// Hedging: a duplicate request is launched when the primary has been
// outstanding longer than the rolling p99 of observed service times (the
// classic tail-at-scale policy). The earliest successful completion wins.
// Retries: transient failures back off under the shared RetryPolicy
// schedule (storage/recovery.h) with full jitter, capped by the query
// deadline. Permanent failures (lost publication, inactive node) skip the
// ladder entirely — retrying cannot help.

#ifndef ANATOMY_DIST_SCATTER_GATHER_H_
#define ANATOMY_DIST_SCATTER_GATHER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "obs/flightrec.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "query/aggregate.h"
#include "query/group_kernels.h"
#include "storage/recovery.h"

namespace anatomy {

struct DistQueryOptions {
  /// End-to-end budget per query, propagated to every node request.
  uint64_t deadline_ns = 5'000'000;
  /// Backoff schedule for per-node transient retries (full jitter is forced
  /// on; the deadline is the overall cap).
  RetryPolicy retry;
  /// Hedged duplicate requests (at most one per node per query).
  bool hedging = true;
  /// Rolling window of observed service times the hedge delay is computed
  /// from, and the quantile used (p99 of recent latencies).
  size_t hedge_quantile_window = 128;
  double hedge_quantile = 0.99;
  /// Floor for the hedge delay, and the pre-warmup fallback is
  /// deadline_ns / 4.
  uint64_t min_hedge_delay_ns = 100'000;
  /// Seed of the coordinator's jitter/backoff streams (per-query stream i
  /// is Rng::ForStream(seed, i), so replay does not depend on history).
  uint64_t seed = 0xD157;
};

/// An honestly-labeled aggregate answer. Per-node outcomes are
/// obs::ReasonCode values — the same enum the flight recorder logs and the
/// chaos harness asserts on, so "why did node 3 degrade" is answered by
/// value equality, never substring matching.
struct PartialEstimate {
  double value = 0.0;
  /// True iff every shard-bearing node responded: `value` is bit-identical
  /// to the single-node estimate and [lower, upper] collapses onto it.
  bool exact = false;
  /// Fraction of published rows covered by the responding nodes
  /// (covered_rows / total_rows, both exact integers below).
  double covered_mass = 0.0;
  uint64_t covered_rows = 0;
  uint64_t total_rows = 0;
  /// Hard bounds on the true full-fleet estimate: the missing rows'
  /// contribution is bounded by the missing row count (COUNT) or by it
  /// times the measure attribute's maximum absolute value (SUM).
  double lower = 0.0;
  double upper = 0.0;
  /// Per-node ladder outcomes, indexed by node. kNoShard for nodes outside
  /// the query; ClassOf() gives the coarse ok/timeout/unavailable view.
  std::vector<obs::ReasonCode> reasons;
  /// Causal identity of this query: every trace span and flight-recorder
  /// event the query produced carries this id (allocated even when tracing
  /// is off, so recorder events stay matchable).
  uint64_t trace_id = 0;
  /// Virtual end-to-end latency: slowest node completion in the modelled
  /// parallel fan-out.
  uint64_t virtual_ns = 0;
  /// Hedges launched / won and transient retries spent on this query.
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t retries = 0;
};

class ScatterGatherEstimator {
 public:
  /// `cluster` must outlive the estimator. Starts the node-compute
  /// workers: with the calling thread, min(nodes, hardware threads / 2)
  /// threads compute, and at least two.
  ScatterGatherEstimator(DistCluster* cluster,
                         const DistQueryOptions& options = {});

  /// COUNT or SUM (kAvg is rejected: it does not decompose into per-node
  /// partial aggregates without changing the float schedule). A predicate
  /// or measure on a column the publication lacks is kInvalidArgument,
  /// before any node is asked. Returns a clean kUnavailable error when no
  /// node responds, otherwise an honestly-labeled estimate per the ladder
  /// above; the merge is CanonicalFold (query/group_kernels.h).
  StatusOr<PartialEstimate> Estimate(const AggregateQuery& query);

  /// The hedge delay the next query would use (exposed for tests).
  uint64_t CurrentHedgeDelayNs();

  /// Trace id of the most recent Estimate() call, including calls that
  /// returned an error (errors carry no PartialEstimate, but their flight
  /// events still need correlating).
  uint64_t last_trace_id() const { return last_trace_id_; }

  /// The estimator's running virtual clock: queries lay out sequentially on
  /// the merged virtual timeline starting here.
  uint64_t virtual_now_ns() const { return virtual_now_; }

 private:
  struct NodeAttempt {
    obs::ReasonCode reason = obs::ReasonCode::kNoShard;
    uint64_t finish_ns = 0;
    uint64_t rows = 0;
  };
  /// Runs one node's full ladder (primary + hedge + retries) in virtual
  /// time, charging against the deadline. `stats` accumulates into the
  /// estimate being built; `ctx` carries the query's causal identity (node
  /// spans become children of the query's root span, stamped with virtual
  /// time from ctx.virtual_start_ns).
  NodeAttempt QueryNode(size_t i, Rng& rng, PartialEstimate* stats,
                        const obs::TraceContext& ctx);

  DistCluster* cluster_;
  DistQueryOptions options_;
  /// node_partials_[j]: the partials of the j-th answering node of the
  /// current query (kept across queries so the steady state reuses them).
  std::vector<std::vector<AnatomyQueryEngine::GroupAggregatePartial>>
      node_partials_;
  obs::SlidingQuantile latency_;
  uint64_t query_index_ = 0;
  uint64_t virtual_now_ = 0;
  uint64_t last_trace_id_ = 0;
  /// Last, so its workers are joined before what their tasks touch goes.
  ThreadPool pool_;
};

}  // namespace anatomy

#endif  // ANATOMY_DIST_SCATTER_GATHER_H_
