#include "dist/node.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace anatomy {

DistNode::DistNode(const DistNodeOptions& options)
    : options_(options),
      faults_(&base_, FaultSpec{.seed = options.fault_seed}),
      pool_(&faults_, options.pool_pages) {}

Status DistNode::Activate(const StorageManifest& manifest, uint64_t epoch,
                          GroupId group_count, GroupId group_offset,
                          const std::vector<AttributeDef>& qi_defs,
                          const AttributeDef& sensitive_def) {
  Deactivate();

  // Rebuild the published tables with the shared data dictionary, decoding
  // pages straight into the columns. Group ids on disk are node-local and
  // dense, exactly what FromPublishedTables validates; Serve() adds the
  // epoch's offset when answering.
  const RetryPolicy& retry = pool_.retry_policy();
  Table qit(QitSchema(qi_defs, group_count));
  ANATOMY_RETURN_IF_ERROR(AppendPublishedFile(
      &faults_, manifest.qit, retry, qi_defs.size(), /*gid_offset=*/0, qit));
  Table st(StSchema(sensitive_def, group_count, manifest.qit.records));
  ANATOMY_RETURN_IF_ERROR(AppendPublishedFile(&faults_, manifest.st, retry,
                                              /*gid_field=*/0,
                                              /*gid_offset=*/0, st));

  ANATOMY_ASSIGN_OR_RETURN(AnatomizedTables tables,
                           AnatomizedTables::FromPublishedTables(
                               std::move(qit), std::move(st)));
  if (tables.num_groups() != group_count) {
    return Status::FailedPrecondition(
        "epoch record says " + std::to_string(group_count) +
        " groups but the publication holds " +
        std::to_string(tables.num_groups()));
  }
  tables_ = std::make_unique<AnatomizedTables>(std::move(tables));
  engine_ = std::make_unique<AnatomyQueryEngine>(*tables_, EstimatorOptions{});
  manifest_ = manifest;
  epoch_ = epoch;
  group_count_ = group_count;
  group_offset_ = group_offset;
  rows_ = manifest.qit.records;
  return Status::OK();
}

void DistNode::Deactivate() {
  engine_.reset();
  tables_.reset();
  manifest_ = StorageManifest{};
  epoch_ = 0;
  group_count_ = 0;
  group_offset_ = 0;
  rows_ = 0;
}

DistNode::ServeResult DistNode::Attempt(uint64_t budget_ns, Rng& rng,
                                        const obs::TraceContext* trace) {
  ServeResult out;
  out.rows = rows_;

  // Emits this request's virtual-time spans on the coordinator-chosen lane:
  // a "serve" span covering the whole call, with a "probe" child covering
  // the storage touch (its duration is the injected stall) and, when the
  // node answers, a "partials" child covering the estimate compute.
  // Tracing is strictly out-of-band — nothing below feeds back into timing
  // or results.
  auto emit_spans = [&](bool probed, uint64_t stall_ns, bool computes) {
    if (trace == nullptr || !trace->recording) return;
    obs::TraceRecorder& tracer = obs::TraceRecorder::Global();
    if (!tracer.enabled()) return;
    const uint64_t start = trace->virtual_start_ns;
    obs::TraceEvent serve;
    serve.name = "dist.node.serve";
    serve.category = "dist";
    serve.start_ns = start;
    serve.dur_ns = out.service_ns;
    serve.trace_id = trace->trace_id;
    serve.span_id = obs::TraceRecorder::NewId();
    serve.parent_id = trace->parent_span;
    serve.lane = trace->lane;
    serve.virtual_time = true;
    serve.AddArg("rows", static_cast<int64_t>(out.rows));
    serve.AddArg("ok", out.status.ok() ? 1 : 0);
    serve.AddArg("late", out.late ? 1 : 0);
    tracer.RecordEvent(serve);
    if (probed) {
      obs::TraceEvent probe_ev;
      probe_ev.name = "dist.node.probe";
      probe_ev.category = "dist";
      probe_ev.start_ns = start;
      probe_ev.dur_ns = stall_ns;
      probe_ev.trace_id = trace->trace_id;
      probe_ev.span_id = obs::TraceRecorder::NewId();
      probe_ev.parent_id = serve.span_id;
      probe_ev.lane = trace->lane;
      probe_ev.virtual_time = true;
      probe_ev.AddArg("stall_ns", static_cast<int64_t>(stall_ns));
      tracer.RecordEvent(probe_ev);
    }
    if (computes) {
      obs::TraceEvent part_ev;
      part_ev.name = "dist.node.partials";
      part_ev.category = "dist";
      part_ev.start_ns = start + stall_ns;
      part_ev.dur_ns = out.service_ns - stall_ns;
      part_ev.trace_id = trace->trace_id;
      part_ev.span_id = obs::TraceRecorder::NewId();
      part_ev.parent_id = serve.span_id;
      part_ev.lane = trace->lane;
      part_ev.virtual_time = true;
      tracer.RecordEvent(part_ev);
    }
  };

  // Draw the jitter FIRST and unconditionally: one draw per attempt keeps
  // the coordinator's RNG stream aligned no matter how the call ends.
  const uint64_t jitter = options_.service_jitter_ns > 0
                              ? rng.NextBounded(options_.service_jitter_ns)
                              : 0;
  const uint64_t stall_before = faults_.fault_stats().stall_ns;

  if (!active()) {
    out.service_ns = options_.base_service_ns + jitter;
    out.status =
        Status::FailedPrecondition("node has no active publication");
    emit_spans(/*probed=*/false, /*stall_ns=*/0, /*computes=*/false);
    return out;
  }

  // The per-request storage touch: prove the publication is still reachable
  // on the (possibly faulted) device. Crashes and transients surface here as
  // their Status; stalls surface as extra virtual nanoseconds.
  Status probe = ProbePublicationRoot(&faults_, manifest_.root);
  const uint64_t stall_ns = faults_.fault_stats().stall_ns - stall_before;
  out.service_ns = options_.base_service_ns + jitter + stall_ns;
  if (!probe.ok()) {
    out.status = std::move(probe);
    emit_spans(/*probed=*/true, stall_ns, /*computes=*/false);
    return out;
  }
  if (out.service_ns > budget_ns) {
    // Deadline propagation: the coordinator will have hung up by the time
    // this response lands, so skip the compute entirely.
    out.late = true;
    emit_spans(/*probed=*/true, stall_ns, /*computes=*/false);
    return out;
  }

  emit_spans(/*probed=*/true, stall_ns, /*computes=*/true);
  return out;
}

void DistNode::ComputePartials(
    const CountQuery& query, bool need_sum, size_t measure_qi,
    std::vector<AnatomyQueryEngine::GroupAggregatePartial>* out) {
  ANATOMY_CHECK(active());
  engine_->CollectSizeClassPartials(query, need_sum, measure_qi, scratch_,
                                    out);
}

DistNode::ServeResult DistNode::Serve(const CountQuery& query, bool need_sum,
                                      size_t measure_qi, uint64_t budget_ns,
                                      Rng& rng,
                                      const obs::TraceContext* trace) {
  ServeResult out = Attempt(budget_ns, rng, trace);
  if (out.answered()) {
    ComputePartials(query, need_sum, measure_qi, &out.partials);
  }
  return out;
}

}  // namespace anatomy
