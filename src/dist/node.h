// DistNode: one storage node of the simulated multi-node deployment.
//
// A node owns the full single-node storage stack — a SimulatedDisk wrapped
// in a FaultInjectingDisk, and a BufferPool with bounded retry — plus the
// serving state for its shard of the publication: the crash-consistent
// manifest of the shard's QIT/ST, the in-memory published view rebuilt from
// those files, and a group-clustered AnatomyQueryEngine over it.
//
// A request has two steps. Attempt() is the VIRTUAL-time model: it draws
// the service duration the call would have taken (base latency + seeded
// uniform jitter + any stall the fault schedule injected into the
// per-request storage probe) and decides whether the node answers. Nothing
// sleeps; the coordinator (src/dist/scatter_gather.h) charges the duration
// against the query deadline, which is what makes the chaos harness
// deterministic and fast while still exercising real deadline/hedge/retry
// logic. ComputePartials() is the real work: the node's size-class partial
// aggregates, measured in wall time. Serve() is one of each.
//
// Thread safety: one coordinator drives Attempt() and everything else. The
// coordinator may run ComputePartials() of different nodes concurrently:
// each touches only its own engine and scratch.

#ifndef ANATOMY_DIST_NODE_H_
#define ANATOMY_DIST_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "anatomy/anatomized_tables.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/trace.h"
#include "query/estimator_scratch.h"
#include "query/group_kernels.h"
#include "query/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/publication.h"
#include "storage/simulated_disk.h"
#include "table/schema.h"

namespace anatomy {

struct DistNodeOptions {
  /// BufferPool frames for the node's publish pipeline and recovery reads.
  size_t pool_pages = kDefaultPoolPages;
  /// Seed of the node's FaultInjectingDisk (construction-time schedule is
  /// fault-free; chaos arms faults later via fault_disk()->ReArm()).
  uint64_t fault_seed = 1;
  /// Virtual service time of one Serve call: base + Uniform[0, jitter).
  uint64_t base_service_ns = 200'000;
  uint64_t service_jitter_ns = 100'000;
};

class DistNode {
 public:
  explicit DistNode(const DistNodeOptions& options);
  DistNode(const DistNode&) = delete;
  DistNode& operator=(const DistNode&) = delete;

  /// The faulted device every I/O path of this node goes through.
  FaultInjectingDisk* fault_disk() { return &faults_; }
  Disk* disk() { return &faults_; }
  SimulatedDisk* base_disk() { return &base_; }
  BufferPool* pool() { return &pool_; }

  /// Installs the node's serving state for an epoch: reads the committed
  /// QIT/ST back from the manifest, reconstructs the published tables
  /// (schema from the shared data dictionary `qi_defs` + `sensitive_def`),
  /// and builds the clustered query engine. On failure the node is left
  /// deactivated — it then answers Serve() with a permanent error, which the
  /// coordinator reports as node-unavailable degradation, never as a wrong
  /// number.
  Status Activate(const StorageManifest& manifest, uint64_t epoch,
                  GroupId group_count, GroupId group_offset,
                  const std::vector<AttributeDef>& qi_defs,
                  const AttributeDef& sensitive_def);

  /// Drops the serving state (the on-disk publication is untouched).
  void Deactivate();

  bool active() const { return engine_ != nullptr; }
  uint64_t epoch() const { return epoch_; }
  GroupId group_count() const { return group_count_; }
  GroupId group_offset() const { return group_offset_; }
  /// QIT rows served by this node (its share of the coverage denominator).
  uint64_t rows() const { return rows_; }
  const StorageManifest& manifest() const { return manifest_; }

  struct ServeResult {
    /// OK, transient (retryable by the coordinator), or permanent.
    Status status;
    /// Server-side deadline propagation: the drawn service time already
    /// exceeded the request's budget, so the node skips the estimate
    /// computation. status is OK but partials are empty.
    bool late = false;
    /// Virtual duration of this call (base + jitter + injected stalls).
    uint64_t service_ns = 0;
    /// The node's rows (repeated here so the gather step can account
    /// coverage without a side lookup).
    uint64_t rows = 0;
    /// Exact size-class partials (Serve() only; Attempt() leaves it empty).
    std::vector<AnatomyQueryEngine::GroupAggregatePartial> partials;

    /// The node answered: ComputePartials() is owed.
    bool answered() const { return status.ok() && !late; }
  };

  /// The virtual-time step of one simulated request. `budget_ns` is the
  /// deadline budget the coordinator propagates; `rng` supplies the jitter
  /// draw (exactly one per call, so coordinator-side replay is
  /// deterministic). Every call probes the manifest root on the faulted
  /// disk — that read is where crashes, transients, corruption, and stalls
  /// of the node's device surface.
  ///
  /// `trace`, when non-null and recording, carries the coordinator's causal
  /// identity: the call emits virtual-time child spans (serve/probe/partials)
  /// on the context's lane under the context's parent span, so a merged
  /// export shows all N nodes of a query on one timeline.
  ServeResult Attempt(uint64_t budget_ns, Rng& rng,
                      const obs::TraceContext* trace = nullptr);

  /// The compute step: this node's size-class partials for `query` into
  /// *out. Requires active().
  void ComputePartials(
      const CountQuery& query, bool need_sum, size_t measure_qi,
      std::vector<AnatomyQueryEngine::GroupAggregatePartial>* out);

  /// Attempt(), then ComputePartials() into the result when it answered.
  ServeResult Serve(const CountQuery& query, bool need_sum, size_t measure_qi,
                    uint64_t budget_ns, Rng& rng,
                    const obs::TraceContext* trace = nullptr);

 private:
  DistNodeOptions options_;
  SimulatedDisk base_;
  FaultInjectingDisk faults_;
  BufferPool pool_;

  StorageManifest manifest_;
  uint64_t epoch_ = 0;
  GroupId group_count_ = 0;
  GroupId group_offset_ = 0;
  uint64_t rows_ = 0;
  std::unique_ptr<AnatomizedTables> tables_;
  std::unique_ptr<AnatomyQueryEngine> engine_;
  EstimatorScratch scratch_;
};

}  // namespace anatomy

#endif  // ANATOMY_DIST_NODE_H_
