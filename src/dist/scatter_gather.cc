#include "dist/scatter_gather.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace anatomy {

namespace {

// One flight-recorder append. Log() itself is a single relaxed load when
// recording is disabled, so this is safe on the per-attempt path.
void LogFlight(obs::FlightEventType type, obs::ReasonCode reason, uint64_t t_ns,
               uint64_t trace_id, uint64_t epoch, int32_t node,
               int64_t detail) {
  obs::FlightRecord r;
  r.t_ns = t_ns;
  r.trace_id = trace_id;
  r.detail = detail;
  r.epoch = epoch;
  r.node = node;
  r.type = type;
  r.reason = reason;
  obs::FlightRecorder::Global().Log(r);
}

// Workers beside the calling thread for the node computes: together they
// use at most half the hardware threads, and at least two. A query whose
// computes need every CPU at once stalls whenever anything else takes one
// of them, be it another process or the host preempting a vCPU.
size_t ComputeWorkers(size_t nodes) {
  const size_t half = std::thread::hardware_concurrency() / 2;
  return std::max<size_t>(std::min(nodes, half), 2) - 1;
}

}  // namespace

CanonicalFoldResult CanonicalFold(
    std::span<const AnatomyQueryEngine::GroupAggregatePartial> partials) {
  std::vector<AnatomyQueryEngine::GroupAggregatePartial> by_size(
      partials.begin(), partials.end());
  std::sort(by_size.begin(), by_size.end(),
            [](const auto& a, const auto& b) { return a.size < b.size; });
  CanonicalFoldResult r;
  for (size_t i = 0; i < by_size.size();) {
    AnatomyQueryEngine::GroupAggregatePartial total = by_size[i];
    for (++i; i < by_size.size() && by_size[i].size == total.size; ++i) {
      total.mass_match += by_size[i].mass_match;
      total.mass_value += by_size[i].mass_value;
    }
    const double size = static_cast<double>(total.size);
    r.count += static_cast<double>(total.mass_match) / size;
    r.sum += static_cast<double>(total.mass_value) / size;
  }
  return r;
}

ScatterGatherEstimator::ScatterGatherEstimator(DistCluster* cluster,
                                               const DistQueryOptions& options)
    : cluster_(cluster),
      options_(options),
      latency_(std::max<size_t>(options.hedge_quantile_window, 1)),
      pool_(ComputeWorkers(cluster->num_nodes())) {
  // The retry schedule always jitters: synchronized retries from a fan-out
  // are exactly the thundering herd full jitter exists to break up.
  options_.retry.full_jitter = true;
}

uint64_t ScatterGatherEstimator::CurrentHedgeDelayNs() {
  // Before enough samples exist to trust a tail quantile, hedge at a fixed
  // fraction of the deadline rather than not at all.
  const uint64_t delay =
      latency_.count() >= 16 ? latency_.Quantile(options_.hedge_quantile)
                             : options_.deadline_ns / 4;
  return std::max(delay, options_.min_hedge_delay_ns);
}

ScatterGatherEstimator::NodeAttempt ScatterGatherEstimator::QueryNode(
    size_t i, Rng& rng, PartialEstimate* stats, const obs::TraceContext& ctx) {
  NodeAttempt out;
  DistNode* node = cluster_->node(i);
  const uint64_t deadline = options_.deadline_ns;
  const uint64_t hedge_delay = CurrentHedgeDelayNs();
  const int max_attempts =
      options_.retry.max_attempts > 0 ? options_.retry.max_attempts : 1;
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const uint64_t epoch = cluster_->epoch();
  const int32_t node_id = static_cast<int32_t>(i);

  uint64_t now = 0;
  bool hedged = false;
  for (int attempt = 0;; ++attempt) {
    if (now >= deadline) {
      out.reason = obs::ReasonCode::kDeadlineExhausted;
      out.finish_ns = deadline;
      return out;
    }
    obs::TraceContext attempt_ctx = ctx;
    attempt_ctx.virtual_start_ns = ctx.virtual_start_ns + now;
    const DistNode::ServeResult primary =
        node->Attempt(deadline - now, rng, &attempt_ctx);
    const uint64_t primary_finish = now + primary.service_ns;
    const bool primary_ok = primary.answered();
    if (primary.late) registry.GetCounter("dist.deadline_propagated")->Increment();

    // Hedge: a duplicate launched hedge_delay after the primary, if the
    // primary is still outstanding by then. At most one per node per query.
    DistNode::ServeResult hedge;
    uint64_t hedge_start = 0;
    uint64_t hedge_finish = 0;
    bool hedge_ok = false;
    bool hedge_launched = false;
    if (options_.hedging && !hedged && primary.service_ns > hedge_delay &&
        now + hedge_delay < deadline) {
      hedged = true;
      hedge_launched = true;
      ++stats->hedges;
      hedge_start = now + hedge_delay;
      obs::TraceContext hedge_ctx = ctx;
      hedge_ctx.virtual_start_ns = ctx.virtual_start_ns + hedge_start;
      hedge = node->Attempt(deadline - hedge_start, rng, &hedge_ctx);
      hedge_finish = hedge_start + hedge.service_ns;
      hedge_ok = hedge.answered();
      if (hedge.late) {
        registry.GetCounter("dist.deadline_propagated")->Increment();
      }
    }

    // Earliest successful completion wins; a hedge can rescue a failed
    // primary outright.
    if (primary_ok || hedge_ok) {
      const bool hedge_wins =
          hedge_ok && (!primary_ok || hedge_finish < primary_finish);
      if (hedge_launched) {
        LogFlight(obs::FlightEventType::kHedge, obs::ReasonCode::kOk,
                  ctx.virtual_start_ns + hedge_start, ctx.trace_id, epoch,
                  node_id, hedge_wins ? 1 : 0);
      }
      const DistNode::ServeResult& winner = hedge_wins ? hedge : primary;
      if (hedge_wins) ++stats->hedge_wins;
      out.reason = obs::ReasonCode::kOk;
      out.finish_ns = hedge_wins ? hedge_finish : primary_finish;
      out.rows = winner.rows;
      latency_.Record(winner.service_ns);
      return out;
    }
    if (hedge_launched) {
      LogFlight(obs::FlightEventType::kHedge, obs::ReasonCode::kNone,
                ctx.virtual_start_ns + hedge_start, ctx.trace_id, epoch,
                node_id, 0);
    }

    // Both lost. Classify off the primary: a late response means the
    // deadline itself is spent; a permanent error cannot be retried away.
    if (primary.status.ok() && primary.late) {
      out.reason = obs::ReasonCode::kLateResponse;
      out.finish_ns = deadline;
      return out;
    }
    if (!primary.status.IsTransient()) {
      out.reason = primary.status.code() == StatusCode::kFailedPrecondition
                       ? obs::ReasonCode::kInactiveNode
                       : obs::ReasonCode::kPermanentError;
      out.finish_ns = std::min(primary_finish, deadline);
      return out;
    }
    if (attempt + 1 >= max_attempts) {
      out.reason = obs::ReasonCode::kRetriesExhausted;
      out.finish_ns = std::min(primary_finish, deadline);
      return out;
    }
    ++stats->retries;
    LogFlight(obs::FlightEventType::kRetry, obs::ReasonCode::kTransientError,
              ctx.virtual_start_ns + primary_finish, ctx.trace_id, epoch,
              node_id, attempt);
    const uint64_t backoff_ns =
        static_cast<uint64_t>(RetryBackoff(options_.retry, attempt, rng)
                                  .count()) *
        1000;
    now = primary_finish + backoff_ns;
  }
}

StatusOr<PartialEstimate> ScatterGatherEstimator::Estimate(
    const AggregateQuery& query) {
  if (query.kind == AggregateKind::kAvg) {
    return Status::InvalidArgument(
        "AVG does not decompose into mergeable partial aggregates; issue "
        "SUM and COUNT separately");
  }
  const bool need_sum = query.kind == AggregateKind::kSum;
  if (need_sum && query.measure_qi >= cluster_->qi_defs().size()) {
    return Status::InvalidArgument("measure QI index out of range");
  }
  Rng rng = Rng::ForStream(options_.seed, query_index_++);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("dist.queries")->Increment();

  // Causal identity. The trace id is allocated even when tracing is off:
  // flight-recorder events still need to correlate with the estimate (and
  // with each other) in the chaos harness.
  obs::TraceRecorder& tracer = obs::TraceRecorder::Global();
  const bool tracing = tracer.enabled();
  const uint64_t trace_id = obs::TraceRecorder::NewId();
  const uint64_t root_span = tracing ? obs::TraceRecorder::NewId() : 0;
  last_trace_id_ = trace_id;
  const uint64_t qstart = virtual_now_;
  const uint64_t epoch = cluster_->epoch();

  PartialEstimate est;
  est.trace_id = trace_id;
  est.total_rows = cluster_->total_rows();
  est.reasons.assign(cluster_->num_nodes(), obs::ReasonCode::kNoShard);

  // The ladder, node by node in node order. The modelled fan-out is
  // parallel: virtual_ns is the slowest node's completion, not the sum.
  std::vector<DistNode*> answering;
  size_t shard_nodes = 0;
  for (size_t i = 0; i < cluster_->num_nodes(); ++i) {
    if (cluster_->record().nodes[i].root == kInvalidPageId) continue;
    ++shard_nodes;
    obs::TraceContext ctx;
    ctx.trace_id = trace_id;
    ctx.parent_span = root_span;
    ctx.virtual_start_ns = qstart;
    ctx.lane = static_cast<uint32_t>(i) + 1;  // lane 0 is the coordinator
    ctx.recording = tracing;
    const NodeAttempt attempt = QueryNode(i, rng, &est, ctx);
    est.reasons[i] = attempt.reason;
    est.virtual_ns = std::max(est.virtual_ns, attempt.finish_ns);
    switch (obs::ClassOf(attempt.reason)) {
      case obs::ReasonClass::kOkClass:
        answering.push_back(cluster_->node(i));
        est.covered_rows += attempt.rows;
        break;
      case obs::ReasonClass::kTimeoutClass:
        registry.GetCounter("dist.node_timeout")->Increment();
        LogFlight(obs::FlightEventType::kQueryDegraded, attempt.reason,
                  qstart + attempt.finish_ns, trace_id, epoch,
                  static_cast<int32_t>(i), 0);
        break;
      case obs::ReasonClass::kUnavailableClass:
        registry.GetCounter("dist.node_unavailable")->Increment();
        LogFlight(obs::FlightEventType::kQueryDegraded, attempt.reason,
                  qstart + attempt.finish_ns, trace_id, epoch,
                  static_cast<int32_t>(i), 0);
        break;
    }
  }
  const size_t responded = answering.size();
  registry.GetCounter("dist.hedges")->Increment(est.hedges);
  registry.GetCounter("dist.hedge_wins")->Increment(est.hedge_wins);
  registry.GetCounter("dist.retries")->Increment(est.retries);
  registry.GetHistogram("dist.query_ns")->Record(est.virtual_ns);

  // Root span on the coordinator lane, covering the whole virtual fan-out;
  // emitted on every path so merged exports always show the query. Also
  // advances the estimator's virtual clock so back-to-back queries tile the
  // merged timeline instead of overlapping at t=0.
  auto finish_query = [&]() {
    if (tracing) {
      obs::TraceEvent ev;
      ev.name = "dist.query";
      ev.category = "dist";
      ev.start_ns = qstart;
      ev.dur_ns = est.virtual_ns;
      ev.trace_id = trace_id;
      ev.span_id = root_span;
      ev.parent_id = 0;
      ev.lane = 0;
      ev.virtual_time = true;
      ev.AddArg("nodes", static_cast<int64_t>(shard_nodes));
      ev.AddArg("responded", static_cast<int64_t>(responded));
      ev.AddArg("hedges", static_cast<int64_t>(est.hedges));
      ev.AddArg("retries", static_cast<int64_t>(est.retries));
      tracer.RecordEvent(ev);
    }
    virtual_now_ += est.virtual_ns + 1;
  };

  if (shard_nodes == 0) {
    LogFlight(obs::FlightEventType::kQueryUnavailable,
              obs::ReasonCode::kNoPublication, qstart, trace_id, epoch, -1, 0);
    finish_query();
    obs::FlightRecorder::Global().MaybeDumpOnError(
        "query: current epoch has no publication");
    return Status::FailedPrecondition("current epoch has no publication");
  }
  if (responded == 0) {
    registry.GetCounter("dist.degraded")->Increment();
    LogFlight(obs::FlightEventType::kQueryUnavailable,
              obs::ReasonCode::kAllNodesLost, qstart + est.virtual_ns, trace_id,
              epoch, -1, static_cast<int64_t>(shard_nodes));
    finish_query();
    obs::FlightRecorder::Global().MaybeDumpOnError("query: all nodes lost");
    return Status::Unavailable(
        "no node answered within the deadline (" +
        std::to_string(shard_nodes) + " queried)");
  }

  // The compute, in wall time: the answering nodes concurrently on this
  // thread and the pool, each exactly once even when a hedge won its
  // ladder. This thread computes the first, then takes any node no worker
  // has started yet, so a query never waits on a worker that has not woken
  // up.
  if (node_partials_.size() < responded) node_partials_.resize(responded);
  const auto compute = [&](size_t j) {
    answering[j]->ComputePartials(query.predicates, need_sum,
                                  query.measure_qi, &node_partials_[j]);
  };
  for (size_t j = 1; j < responded; ++j) {
    pool_.Submit([&compute, j] { compute(j); });
  }
  compute(0);
  pool_.RunPendingThenWait();
  std::vector<AnatomyQueryEngine::GroupAggregatePartial> merged;
  for (size_t j = 0; j < responded; ++j) {
    merged.insert(merged.end(), node_partials_[j].begin(),
                  node_partials_[j].end());
  }
  const CanonicalFoldResult fold = CanonicalFold(merged);
  est.value = need_sum ? fold.sum : fold.count;
  est.exact = responded == shard_nodes;
  if (est.exact) {
    est.covered_mass = 1.0;
    est.lower = est.value;
    est.upper = est.value;
    registry.GetCounter("dist.exact")->Increment();
    finish_query();
    return est;
  }

  // Partial: label the answer with its coverage and hard-bound what the
  // missing rows could have contributed. Each missing row adds at most 1 to
  // a COUNT (its group term is mass/|g| * match <= match) and at most the
  // measure attribute's largest absolute value to a SUM — both derivable
  // from the epoch record and the schema alone.
  registry.GetCounter("dist.degraded")->Increment();
  est.covered_mass = est.total_rows == 0
                         ? 0.0
                         : static_cast<double>(est.covered_rows) /
                               static_cast<double>(est.total_rows);
  const double missing =
      static_cast<double>(est.total_rows - est.covered_rows);
  if (!need_sum) {
    est.lower = est.value;
    est.upper = est.value + missing;
  } else {
    const AttributeDef& measure = cluster_->qi_defs()[query.measure_qi];
    const double lo = static_cast<double>(measure.numeric_base);
    const double hi = static_cast<double>(
        measure.numeric_base +
        static_cast<int64_t>(measure.domain_size - 1) * measure.numeric_step);
    const double max_abs = std::max(std::abs(lo), std::abs(hi));
    est.lower = est.value - missing * max_abs;
    est.upper = est.value + missing * max_abs;
  }
  finish_query();
  return est;
}

}  // namespace anatomy
