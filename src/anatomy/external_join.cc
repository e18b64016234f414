#include "anatomy/external_join.h"

#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/external_sort.h"
#include "storage/recovery.h"

namespace anatomy {

namespace {

StatusOr<ExternalJoinResult> JoinPipeline(const AnatomizedTables& tables,
                                          Disk* disk, BufferPool* pool) {
  const Table& qit = tables.qit();
  const Table& st = tables.st();
  const size_t d = qit.num_columns() - 1;
  const size_t qit_fields = d + 1;

  // ---- Stage 0 (uncounted): materialize the publication on disk. ----
  RecordFile qit_file(disk, qit_fields);
  {
    RecordWriter writer(pool, &qit_file);
    std::vector<int32_t> rec(qit_fields);
    for (RowId r = 0; r < qit.num_rows(); ++r) {
      for (size_t c = 0; c < qit_fields; ++c) rec[c] = qit.at(r, c);
      ANATOMY_RETURN_IF_ERROR(writer.Append(rec));
    }
  }
  RecordFile st_file(disk, 3);
  {
    RecordWriter writer(pool, &st_file);
    std::vector<int32_t> rec(3);
    for (RowId r = 0; r < st.num_rows(); ++r) {
      for (size_t c = 0; c < 3; ++c) rec[c] = st.at(r, c);
      ANATOMY_RETURN_IF_ERROR(writer.Append(rec));
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  disk->ResetStats();

  obs::ScopedSpan join_span("external_join.sort_merge", "external_join");
  // ---- Sort the QIT by Group-ID. The ST is in (Group-ID, As) order
  // already: AnatomizedTables keeps it so. ----
  SortSpec qit_spec;
  qit_spec.key_fields = {d};  // group id is the last QIT field
  ANATOMY_ASSIGN_OR_RETURN(auto sorted_qit,
                           ExternalSort(&qit_file, qit_spec, pool));

  // ---- Merge join: for each QIT tuple, emit one record per ST record of
  // its group. Groups are small (O(l) ST records), so the current group's
  // ST block is buffered in memory. ----
  ExternalJoinResult result;
  result.joined = std::make_unique<RecordFile>(disk, d + 3);
  RecordWriter writer(pool, result.joined.get());

  RecordReader qit_reader(pool, sorted_qit.get());
  RecordReader st_reader(pool, &st_file);
  std::vector<int32_t> qit_rec(qit_fields);
  std::vector<int32_t> st_rec(3);
  std::vector<int32_t> out_rec(d + 3);

  bool st_has = false;
  ANATOMY_ASSIGN_OR_RETURN(st_has, st_reader.Next(st_rec));
  int32_t block_group = -1;
  std::vector<std::pair<int32_t, int32_t>> block;  // (sensitive, count)

  auto load_block = [&](int32_t group) -> Status {
    block.clear();
    block_group = group;
    while (st_has && st_rec[0] < group) {
      ANATOMY_ASSIGN_OR_RETURN(st_has, st_reader.Next(st_rec));
    }
    while (st_has && st_rec[0] == group) {
      block.emplace_back(st_rec[1], st_rec[2]);
      ANATOMY_ASSIGN_OR_RETURN(st_has, st_reader.Next(st_rec));
    }
    return Status::OK();
  };

  for (;;) {
    ANATOMY_ASSIGN_OR_RETURN(bool more, qit_reader.Next(qit_rec));
    if (!more) break;
    const int32_t group = qit_rec[d];
    if (group != block_group) {
      ANATOMY_RETURN_IF_ERROR(load_block(group));
    }
    for (const auto& [value, count] : block) {
      std::copy(qit_rec.begin(), qit_rec.end(), out_rec.begin());
      out_rec[d + 1] = value;
      out_rec[d + 2] = count;
      ANATOMY_RETURN_IF_ERROR(writer.Append(out_rec));
      ++result.records;
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  ANATOMY_RETURN_IF_ERROR(sorted_qit->FreeAll(pool));
  ANATOMY_RETURN_IF_ERROR(st_file.FreeAll(pool));
  result.io = disk->stats();
  join_span.End();

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("external_join.runs")->Increment();
  registry.GetCounter("external_join.io.reads")->Increment(result.io.reads);
  registry.GetCounter("external_join.io.writes")->Increment(result.io.writes);
  return result;
}

}  // namespace

StatusOr<ExternalJoinResult> ExternalJoinQitSt(const AnatomizedTables& tables,
                                               Disk* disk, BufferPool* pool) {
  PipelineGuard guard(disk, pool);
  auto result = JoinPipeline(tables, disk, pool);
  if (!result.ok()) {
    guard.Abort();
    return result.status();
  }
  if (pool->pinned_frames() != 0) {
    guard.Abort();
    return Status::Internal("join finished with " +
                            std::to_string(pool->pinned_frames()) +
                            " frames still pinned");
  }
  return result;
}

}  // namespace anatomy
