#include "dist/cluster.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace anatomy {
namespace {

// Flight-recorder append for the publish/recover pipeline. Wall-clock
// stamped: epoch swaps run in real time, unlike the virtual serving path.
void LogEpochFlight(obs::FlightEventType type, obs::ReasonCode reason,
                    uint64_t epoch, int32_t node, int64_t detail) {
  obs::FlightRecord r;
  r.t_ns = obs::TraceRecorder::Global().NowNs();
  r.detail = detail;
  r.epoch = epoch;
  r.node = node;
  r.type = type;
  r.reason = reason;
  obs::FlightRecorder::Global().Log(r);
}

// Epoch record page layout, int32 slots:
//   [0] magic 'EPOC'  [1] version  [2..3] epoch (64b)  [4] node count
//   [5..6] total rows (64b)  then kNodeSlots per node starting at slot 8:
//   root, prev_root, group_count, rows (64b), reserved.
constexpr int32_t kEpochMagic = 0x45504F43;  // 'EPOC'
constexpr int32_t kEpochVersion = 1;
constexpr size_t kNodeBaseSlot = 8;
constexpr size_t kNodeSlots = 6;
constexpr size_t kMaxNodes = 64;

int32_t Slot(const Page& page, size_t slot) {
  return page.ReadInt32(slot * sizeof(int32_t));
}
void SetSlot(Page& page, size_t slot, int32_t v) {
  page.WriteInt32(slot * sizeof(int32_t), v);
}
void SetSlot64(Page& page, size_t slot, uint64_t v) {
  SetSlot(page, slot, static_cast<int32_t>(v & 0xFFFFFFFFu));
  SetSlot(page, slot + 1, static_cast<int32_t>(v >> 32));
}
uint64_t Slot64(const Page& page, size_t slot) {
  const uint64_t lo = static_cast<uint32_t>(Slot(page, slot));
  const uint64_t hi = static_cast<uint32_t>(Slot(page, slot + 1));
  return lo | (hi << 32);
}

Status Killed(const char* where) {
  return Status::Unavailable(
      std::string("coordinator killed at ") + where + " (simulated)");
}

}  // namespace

DistCluster::DistCluster(const DistClusterOptions& options)
    : options_(options),
      coord_faults_(&coord_base_,
                    FaultSpec{.seed = SplitMix64(options.seed ^ 0xC00D)}) {
  ANATOMY_CHECK(options.nodes >= 1 && options.nodes <= kMaxNodes);
  nodes_.reserve(options.nodes);
  for (size_t i = 0; i < options.nodes; ++i) {
    DistNodeOptions node_options = options.node;
    node_options.fault_seed =
        SplitMix64(options.seed ^ (0xD15C + static_cast<uint64_t>(i)));
    nodes_.push_back(std::make_unique<DistNode>(node_options));
  }
  record_page_ = coord_faults_.AllocatePage();
  record_.nodes.resize(options.nodes);
  // Construction happens on fault-free disks; the epoch-0 write cannot fail.
  const Status s = WriteEpochRecord(record_);
  ANATOMY_CHECK(s.ok());
}

Status DistCluster::WriteEpochRecord(const EpochRecord& record) {
  ANATOMY_CHECK(record.nodes.size() == nodes_.size());
  Page page;
  page.Clear();
  SetSlot(page, 0, kEpochMagic);
  SetSlot(page, 1, kEpochVersion);
  SetSlot64(page, 2, record.epoch);
  SetSlot(page, 4, static_cast<int32_t>(record.nodes.size()));
  SetSlot64(page, 5, record.total_rows);
  for (size_t i = 0; i < record.nodes.size(); ++i) {
    const NodeEpochInfo& info = record.nodes[i];
    const size_t b = kNodeBaseSlot + i * kNodeSlots;
    SetSlot(page, b, static_cast<int32_t>(info.root));
    SetSlot(page, b + 1, static_cast<int32_t>(info.prev_root));
    SetSlot(page, b + 2, static_cast<int32_t>(info.group_count));
    SetSlot64(page, b + 3, info.rows);
  }
  return RunWithRetry(options_.commit_retry, nullptr, [&] {
    return coord_faults_.WritePage(record_page_, page);
  });
}

StatusOr<EpochRecord> DistCluster::ReadEpochRecord() {
  Page page;
  ANATOMY_RETURN_IF_ERROR(RunWithRetry(options_.commit_retry, nullptr, [&] {
    return coord_faults_.ReadPage(record_page_, page);
  }));
  if (Slot(page, 0) != kEpochMagic || Slot(page, 1) != kEpochVersion) {
    return Status::DataLoss("epoch record lost its signature");
  }
  EpochRecord record;
  record.epoch = Slot64(page, 2);
  const size_t n = static_cast<size_t>(Slot(page, 4));
  if (n != nodes_.size()) {
    return Status::FailedPrecondition(
        "epoch record names " + std::to_string(n) + " nodes but the fleet "
        "has " + std::to_string(nodes_.size()));
  }
  record.total_rows = Slot64(page, 5);
  record.nodes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = kNodeBaseSlot + i * kNodeSlots;
    record.nodes[i].root = static_cast<PageId>(Slot(page, b));
    record.nodes[i].prev_root = static_cast<PageId>(Slot(page, b + 1));
    record.nodes[i].group_count = static_cast<GroupId>(Slot(page, b + 2));
    record.nodes[i].rows = Slot64(page, b + 3);
  }
  return record;
}

size_t DistCluster::SweepOrphans(size_t i, const StorageManifest* current) {
  std::unordered_set<PageId> owned;
  if (current != nullptr) {
    owned.insert(current->manifest_pages.begin(),
                 current->manifest_pages.end());
    owned.insert(current->qit.pages.begin(), current->qit.pages.end());
    owned.insert(current->st.pages.begin(), current->st.pages.end());
  }
  Disk* disk = nodes_[i]->disk();
  size_t swept = 0;
  for (PageId p : disk->LivePages()) {
    if (owned.count(p) != 0) continue;
    disk->FreePage(p);
    ++swept;
  }
  return swept;
}

StatusOr<EpochPublishReport> DistCluster::PublishEpoch(
    const Microdata& microdata, SwapKillPoint kill) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  if (!have_schema_) {
    for (size_t i = 0; i < microdata.d(); ++i) {
      qi_defs_.push_back(microdata.qi_attribute(i));
    }
    sensitive_def_ = microdata.sensitive_attribute();
    have_schema_ = true;
  }

  // ---- PREPARE: each node publishes its shard next to the old epoch's
  // publication. All-or-none across shards; on failure the fleet is
  // untouched and still serves the old epoch. ----
  const uint64_t next_epoch = record_.epoch + 1;
  ShardedAnatomizerOptions aopts;
  aopts.l = options_.l;
  aopts.seed = SplitMix64(options_.seed ^ next_epoch);
  aopts.shards = nodes_.size();
  aopts.num_threads = options_.publish_threads;
  std::vector<Disk*> disks;
  std::vector<BufferPool*> pools;
  for (auto& node : nodes_) {
    disks.push_back(node->disk());
    pools.push_back(node->pool());
  }
  ShardedExternalAnatomizer anatomizer(aopts);
  StatusOr<ShardedPublishResult> pub_or =
      anatomizer.RunPublished(microdata, disks, pools);
  if (!pub_or.ok()) {
    LogEpochFlight(obs::FlightEventType::kEpochPrepare,
                   obs::ReasonCode::kPrepareFailed, next_epoch, -1, 0);
    obs::FlightRecorder::Global().MaybeDumpOnError("publish: prepare failed");
    return pub_or.status();
  }
  ShardedPublishResult pub = std::move(pub_or).value();
  LogEpochFlight(obs::FlightEventType::kEpochPrepare, obs::ReasonCode::kNone,
                 next_epoch, -1, static_cast<int64_t>(pub.shards_run));

  EpochRecord next;
  next.epoch = next_epoch;
  next.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    next.nodes[i].prev_root = record_.nodes[i].root;
    if (i < pub.manifests.size()) {
      next.nodes[i].root = pub.manifests[i].root;
      next.nodes[i].group_count = pub.shard_groups[i];
      next.nodes[i].rows = pub.manifests[i].qit.records;
      next.total_rows += next.nodes[i].rows;
    }
  }

  if (kill == SwapKillPoint::kAfterPrepare) {
    LogEpochFlight(obs::FlightEventType::kEpochPrepare,
                   obs::ReasonCode::kCoordinatorKilled, next_epoch, -1, 0);
    obs::FlightRecorder::Global().MaybeDumpOnError("publish: killed after-prepare");
    return Killed("after-prepare");
  }
  if (kill == SwapKillPoint::kBeforeCommit) {
    LogEpochFlight(obs::FlightEventType::kEpochCommit,
                   obs::ReasonCode::kCoordinatorKilled, next_epoch, -1,
                   /*detail=*/0);  // 0 = killed before the record write
    obs::FlightRecorder::Global().MaybeDumpOnError("publish: killed before-commit");
    return Killed("before-commit");
  }

  // ---- COMMIT: the atomic flip. On a failed record write the prepared
  // publications are rolled back — the old epoch stays the only epoch. ----
  Status commit = WriteEpochRecord(next);
  if (!commit.ok()) {
    for (size_t i = 0; i < pub.manifests.size(); ++i) {
      (void)DiscardPublication(nodes_[i]->disk(), nodes_[i]->pool(),
                               pub.manifests[i]);
    }
    LogEpochFlight(obs::FlightEventType::kEpochCommit,
                   obs::ReasonCode::kCommitFailed, next_epoch, -1, 0);
    obs::FlightRecorder::Global().MaybeDumpOnError("publish: commit failed");
    return Status(commit.code(),
                  "epoch record commit failed (prepared publications rolled "
                  "back): " + commit.message());
  }
  record_ = next;
  LogEpochFlight(obs::FlightEventType::kEpochCommit, obs::ReasonCode::kNone,
                 next_epoch, -1, 0);

  if (kill == SwapKillPoint::kAfterCommit) {
    LogEpochFlight(obs::FlightEventType::kEpochActivate,
                   obs::ReasonCode::kCoordinatorKilled, next_epoch, -1,
                   /*detail=*/1);  // 1 = the commit landed first
    obs::FlightRecorder::Global().MaybeDumpOnError("publish: killed after-commit");
    return Killed("after-commit");
  }

  // ---- ACTIVATE: nodes load the new epoch, concurrently: each touches only
  // its own disk, pool and serving state. Outcomes are applied in node
  // order once all have finished, so the report and the coordinator's
  // epoch flight records do not depend on scheduling (the fault records a
  // node's disk logs while it reads interleave, as during PREPARE). A
  // failed activation leaves the node serving nothing (degraded) — never
  // the old epoch. ----
  EpochPublishReport report;
  report.epoch = next.epoch;
  report.shards_run = pub.shards_run;
  report.merged_shards = pub.merged_shards;
  std::vector<GroupId> offsets(nodes_.size(), 0);
  for (size_t i = 1; i < nodes_.size(); ++i) {
    offsets[i] = offsets[i - 1] + next.nodes[i - 1].group_count;
  }
  std::vector<Status> activated(nodes_.size());
  {
    ThreadPool thread_pool(options_.publish_threads);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (next.nodes[i].root == kInvalidPageId) continue;
      thread_pool.Submit([this, i, &pub, &next, &offsets, &activated] {
        activated[i] = nodes_[i]->Activate(
            pub.manifests[i], next.epoch, next.nodes[i].group_count,
            offsets[i], qi_defs_, sensitive_def_);
      });
    }
    thread_pool.Wait();
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (next.nodes[i].root == kInvalidPageId) {
      nodes_[i]->Deactivate();
      continue;
    }
    if (!activated[i].ok()) {
      nodes_[i]->Deactivate();
      ++report.activation_failures;
      LogEpochFlight(obs::FlightEventType::kEpochActivate,
                     obs::ReasonCode::kActivationFailed, next.epoch,
                     static_cast<int32_t>(i), 0);
    }
  }
  LogEpochFlight(obs::FlightEventType::kEpochActivate, obs::ReasonCode::kNone,
                 next.epoch, -1,
                 static_cast<int64_t>(report.activation_failures));
  if (report.activation_failures > 0) {
    obs::FlightRecorder::Global().MaybeDumpOnError(
        "publish: node activation failed");
  }

  // ---- GC: discard everything the new epoch does not own (the old
  // publications). The sweep is idempotent, so a crash mid-GC just leaves
  // work for Recover(). ----
  size_t swept = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->pool()->DropAll();
    swept += SweepOrphans(i, i < pub.manifests.size() ? &pub.manifests[i]
                                                      : nullptr);
    if (kill == SwapKillPoint::kMidGc && i == 0) {
      LogEpochFlight(obs::FlightEventType::kEpochGc,
                     obs::ReasonCode::kCoordinatorKilled, next.epoch,
                     static_cast<int32_t>(i), static_cast<int64_t>(swept));
      obs::FlightRecorder::Global().MaybeDumpOnError("publish: killed mid-gc");
      return Killed("mid-gc");
    }
  }
  LogEpochFlight(obs::FlightEventType::kEpochGc, obs::ReasonCode::kNone,
                 next.epoch, -1, static_cast<int64_t>(swept));

  if (obs::MetricsEnabled()) {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    registry.GetCounter("dist.epochs_published")->Increment();
    registry.GetCounter("dist.activation_failures")
        ->Increment(report.activation_failures);
  }
  return report;
}

Status DistCluster::Recover() {
  for (auto& node : nodes_) {
    node->pool()->DropAll();
    node->Deactivate();
  }
  StatusOr<EpochRecord> record_or = ReadEpochRecord();
  if (!record_or.ok()) {
    LogEpochFlight(obs::FlightEventType::kRecovery,
                   obs::ReasonCode::kPermanentError, record_.epoch, -1, 0);
    obs::FlightRecorder::Global().MaybeDumpOnError(
        "recover: epoch record unreadable");
    return record_or.status();
  }
  record_ = std::move(record_or).value();
  if (record_.epoch > 0 && !have_schema_) {
    return Status::FailedPrecondition(
        "cannot recover serving state without the data dictionary");
  }

  GroupId offset = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeEpochInfo& info = record_.nodes[i];
    if (info.root == kInvalidPageId) {
      // No shard this epoch: everything on the disk is a leftover.
      SweepOrphans(i, nullptr);
      continue;
    }
    const RetryPolicy& retry = nodes_[i]->pool()->retry_policy();
    StatusOr<StorageManifest> manifest =
        LoadPublication(nodes_[i]->disk(), info.root, retry);
    Status ok = manifest.ok()
                    ? VerifyPublication(nodes_[i]->disk(), manifest.value(),
                                        retry)
                    : manifest.status();
    if (ok.ok()) {
      ok = nodes_[i]->Activate(manifest.value(), record_.epoch,
                               info.group_count, offset, qi_defs_,
                               sensitive_def_);
    }
    if (ok.ok()) {
      // Only with the current manifest positively identified is it safe to
      // free the rest; a node whose publication cannot be loaded keeps its
      // pages (and serves nothing) rather than risk destroying data.
      SweepOrphans(i, &manifest.value());
    } else {
      nodes_[i]->Deactivate();
      LogEpochFlight(obs::FlightEventType::kRecovery,
                     obs::ReasonCode::kActivationFailed, record_.epoch,
                     static_cast<int32_t>(i), 0);
    }
    offset += info.group_count;
  }
  LogEpochFlight(obs::FlightEventType::kRecovery, obs::ReasonCode::kNone,
                 record_.epoch, -1, 0);
  if (obs::MetricsEnabled()) {
    obs::MetricRegistry::Global().GetCounter("dist.recoveries")->Increment();
  }
  return Status::OK();
}

StatusOr<AnatomizedTables> DistCluster::BuildMergedTables() {
  if (!have_schema_) {
    return Status::FailedPrecondition("no epoch has been published");
  }
  GroupId total_groups = 0;
  for (const NodeEpochInfo& info : record_.nodes) {
    if (info.root != kInvalidPageId) total_groups += info.group_count;
  }
  if (total_groups == 0) {
    return Status::FailedPrecondition("current epoch has no publication");
  }

  const size_t d = qi_defs_.size();
  Table qit(QitSchema(qi_defs_, total_groups));
  qit.Reserve(static_cast<RowId>(record_.total_rows));
  Table st(StSchema(sensitive_def_, total_groups, record_.total_rows));

  // Concatenate in node order: per-group row order is each node's published
  // group-major order, the same order the node's own engine serves — the
  // invariant the bit-identical merge rests on. Records stream from the
  // pages into the columns with their group id shifted by the node's offset.
  GroupId offset = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeEpochInfo& info = record_.nodes[i];
    if (info.root == kInvalidPageId) continue;
    const RetryPolicy& retry = nodes_[i]->pool()->retry_policy();
    Disk* disk = nodes_[i]->disk();
    ANATOMY_ASSIGN_OR_RETURN(StorageManifest manifest,
                             LoadPublication(disk, info.root, retry));
    ANATOMY_RETURN_IF_ERROR(
        AppendPublishedFile(disk, manifest.qit, retry, d, offset, qit));
    ANATOMY_RETURN_IF_ERROR(
        AppendPublishedFile(disk, manifest.st, retry, 0, offset, st));
    offset += info.group_count;
  }
  return AnatomizedTables::FromPublishedTables(std::move(qit), std::move(st));
}

}  // namespace anatomy
