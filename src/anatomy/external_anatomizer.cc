#include "anatomy/external_anatomizer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <set>

#include "anatomy/eligibility.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page_file.h"
#include "storage/recovery.h"

namespace anatomy {

namespace {

// On-disk record layouts (int32 fields):
//   tuple record  : [row_id, sensitive, qi_1 .. qi_d]        (d + 2 fields)
//   group record  : [group_id, row_id, sensitive, qi_1..qi_d] (d + 3 fields)
//   QIT record    : [qi_1 .. qi_d, group_id]                  (d + 1 fields)
//   ST record     : [group_id, sensitive, count]              (3 fields)

/// Streaming cursor over one bucket file that also knows how many records
/// remain (bucket size for the largest-l selection).
struct BucketCursor {
  Code value = 0;
  std::unique_ptr<RecordFile> file;
  std::unique_ptr<RecordReader> reader;

  uint64_t remaining() const { return reader->remaining(); }
};

/// The full pipeline (Stages 0-3). Runs inside the caller's PipelineGuard:
/// any early return leaves pages behind that the guard reclaims. With
/// `publish` set, the QIT/ST files are committed via a manifest and left on
/// disk; otherwise they are freed (the Figures 8-9 benchmark contract).
StatusOr<ExternalAnatomizeResult> RunPipeline(const AnatomizerOptions& options,
                                              const Microdata& microdata,
                                              Disk* disk, BufferPool* pool,
                                              bool publish) {
  const size_t l = static_cast<size_t>(options.l);
  const size_t d = microdata.d();
  const size_t tuple_fields = d + 2;

  // ---- Stage 0 (uncounted): materialize T on disk, as in the paper where
  // the microdata pre-exists as a table. ----
  obs::ScopedSpan stage0_span("external_anatomize.stage0_load",
                              "external_anatomize");
  RecordFile input(disk, tuple_fields);
  {
    RecordWriter writer(pool, &input);
    std::vector<int32_t> rec(tuple_fields);
    for (RowId r = 0; r < microdata.n(); ++r) {
      rec[0] = static_cast<int32_t>(r);
      rec[1] = microdata.sensitive_value(r);
      for (size_t i = 0; i < d; ++i) rec[2 + i] = microdata.qi_value(r, i);
      ANATOMY_RETURN_IF_ERROR(writer.Append(rec));
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  disk->ResetStats();
  stage0_span.End();

  obs::ScopedSpan stage1_span("external_anatomize.stage1_partition",
                              "external_anatomize");
  // ---- Stage 1: hash-partition by sensitive value (Line 2 of Figure 3).
  // Fan-out limited to capacity - 2 buffer pages (one input cursor + slack);
  // overflowing partitions are refined by a second pass. ----
  const Code domain = microdata.sensitive_attribute().domain_size;
  const size_t fanout =
      std::min<size_t>(static_cast<size_t>(domain), pool->capacity() - 2);

  std::vector<std::unique_ptr<RecordFile>> partitions;
  std::vector<std::unique_ptr<RecordWriter>> partition_writers;
  std::vector<std::set<Code>> partition_values(fanout);
  for (size_t p = 0; p < fanout; ++p) {
    partitions.push_back(std::make_unique<RecordFile>(disk, tuple_fields));
    partition_writers.push_back(
        std::make_unique<RecordWriter>(pool, partitions[p].get()));
  }
  {
    RecordReader reader(pool, &input);
    std::vector<int32_t> rec(tuple_fields);
    for (;;) {
      ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
      if (!more) break;
      const Code value = rec[1];
      const size_t p = static_cast<size_t>(value) % fanout;
      partition_values[p].insert(value);
      ANATOMY_RETURN_IF_ERROR(partition_writers[p]->Append(rec));
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  ANATOMY_RETURN_IF_ERROR(input.FreeAll(pool));

  // Refine partitions holding several sensitive values into per-value
  // buckets; single-value partitions are adopted as buckets directly.
  std::map<Code, BucketCursor> buckets;
  for (size_t p = 0; p < fanout; ++p) {
    if (partition_values[p].empty()) continue;
    if (partition_values[p].size() == 1) {
      BucketCursor cursor;
      cursor.value = *partition_values[p].begin();
      cursor.file = std::move(partitions[p]);
      buckets[cursor.value] = std::move(cursor);
      continue;
    }
    std::map<Code, std::unique_ptr<RecordWriter>> refined_writers;
    std::map<Code, std::unique_ptr<RecordFile>> refined_files;
    for (Code v : partition_values[p]) {
      refined_files[v] = std::make_unique<RecordFile>(disk, tuple_fields);
      refined_writers[v] =
          std::make_unique<RecordWriter>(pool, refined_files[v].get());
    }
    RecordReader reader(pool, partitions[p].get());
    std::vector<int32_t> rec(tuple_fields);
    for (;;) {
      ANATOMY_ASSIGN_OR_RETURN(bool more, reader.Next(rec));
      if (!more) break;
      ANATOMY_RETURN_IF_ERROR(refined_writers[rec[1]]->Append(rec));
    }
    ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
    ANATOMY_RETURN_IF_ERROR(partitions[p]->FreeAll(pool));
    for (auto& [v, file] : refined_files) {
      BucketCursor cursor;
      cursor.value = v;
      cursor.file = std::move(file);
      buckets[v] = std::move(cursor);
    }
  }
  for (auto& [v, cursor] : buckets) {
    cursor.reader = std::make_unique<RecordReader>(pool, cursor.file.get());
  }
  stage1_span.End();

  obs::ScopedSpan stage2_span("external_anatomize.stage2_group_draw",
                              "external_anatomize");
  // ---- Stage 2: group-creation (Lines 3-8). Bucket sizes are O(lambda)
  // in-memory counters; tuples stream through the pool. ----
  ExternalAnatomizeResult result;
  const size_t group_fields = d + 3;
  RecordFile group_file(disk, group_fields);
  RecordWriter group_writer(pool, &group_file);

  std::vector<BucketCursor*> cursor_list;
  cursor_list.reserve(buckets.size());
  for (auto& [v, cursor] : buckets) cursor_list.push_back(&cursor);

  // Lazy max-heap of (remaining, index) with stale-entry revalidation.
  std::priority_queue<std::pair<uint64_t, size_t>> heap;
  size_t non_empty = 0;
  for (size_t i = 0; i < cursor_list.size(); ++i) {
    if (cursor_list[i]->remaining() > 0) {
      heap.push({cursor_list[i]->remaining(), i});
      ++non_empty;
    }
  }

  std::vector<int32_t> rec(tuple_fields);
  std::vector<int32_t> group_rec(group_fields);
  int32_t gcnt = 0;
  std::vector<size_t> drawn;
  while (non_empty >= l) {
    drawn.clear();
    while (drawn.size() < l) {
      if (heap.empty()) {
        return Status::Internal(
            "group-creation heap exhausted with non_empty >= l; bucket size "
            "accounting bug");
      }
      auto [size, idx] = heap.top();
      heap.pop();
      if (size == cursor_list[idx]->remaining() && size > 0) {
        drawn.push_back(idx);
      } else if (cursor_list[idx]->remaining() > 0) {
        heap.push({cursor_list[idx]->remaining(), idx});
      }
    }
    for (size_t idx : drawn) {
      BucketCursor* cursor = cursor_list[idx];
      ANATOMY_ASSIGN_OR_RETURN(bool more, cursor->reader->Next(rec));
      if (!more) {
        return Status::Internal(
            "bucket cursor exhausted before its remaining() count; reader "
            "bookkeeping bug");
      }
      group_rec[0] = gcnt;
      std::copy(rec.begin(), rec.end(), group_rec.begin() + 1);
      ANATOMY_RETURN_IF_ERROR(group_writer.Append(group_rec));
      if (cursor->remaining() == 0) {
        --non_empty;
      } else {
        heap.push({cursor->remaining(), idx});
      }
    }
    ++gcnt;
  }
  if (gcnt == 0) {
    return Status::FailedPrecondition(
        "cardinality below l: no QI-group could be formed");
  }

  // Residue tuples (at most l-1, Property 1) are read into memory.
  struct Residue {
    RowId row;
    Code value;
    std::vector<Code> qi;
    bool placed = false;
  };
  std::vector<Residue> residues;
  for (BucketCursor* cursor : cursor_list) {
    while (cursor->remaining() > 0) {
      ANATOMY_ASSIGN_OR_RETURN(bool more, cursor->reader->Next(rec));
      if (!more) {
        return Status::Internal(
            "residue cursor exhausted before its remaining() count; reader "
            "bookkeeping bug");
      }
      Residue res;
      res.row = static_cast<RowId>(rec[0]);
      res.value = rec[1];
      res.qi.assign(rec.begin() + 2, rec.end());
      residues.push_back(std::move(res));
    }
    ANATOMY_RETURN_IF_ERROR(cursor->file->FreeAll(pool));
  }
  if (residues.size() >= l) {
    return Status::Internal("more than l-1 residue tuples; eligibility bug");
  }
  stage2_span.End();

  obs::ScopedSpan stage3_span("external_anatomize.stage3_residue_publish",
                              "external_anatomize");
  // ---- Stage 3: residue-assignment fused with QIT/ST publication
  // (Lines 9-18): one scan of the group file. A residue joins the first
  // scanned group lacking its sensitive value (Property 2 guarantees one
  // exists; "a random QI-group in S'" permits any choice). The scan meets
  // the groups in order, so it also builds the partition. ----
  RecordFile qit_file(disk, d + 1);
  RecordFile st_file(disk, 3);
  RecordWriter qit_writer(pool, &qit_file);
  RecordWriter st_writer(pool, &st_file);

  RecordReader group_reader(pool, &group_file);
  std::vector<int32_t> qit_rec(d + 1);
  std::vector<int32_t> st_rec(3);

  int32_t current_group = -1;
  std::vector<RowId> group_rows;   // rows of the current group
  std::vector<Code> group_values;  // sensitive values of the current group

  auto flush_group = [&]() -> Status {
    if (current_group < 0) return Status::OK();
    // Residue placement for the group just finished.
    for (Residue& res : residues) {
      if (res.placed) continue;
      if (std::find(group_values.begin(), group_values.end(), res.value) !=
          group_values.end()) {
        continue;
      }
      res.placed = true;
      group_rows.push_back(res.row);
      group_values.push_back(res.value);
      for (size_t i = 0; i < d; ++i) qit_rec[i] = res.qi[i];
      qit_rec[d] = current_group;
      ANATOMY_RETURN_IF_ERROR(qit_writer.Append(qit_rec));
    }
    result.partition.AddGroup(group_rows);
    // Emit ST records (each value occurs once per group — Property 3; the
    // histogram form handles general partitions).
    for (const auto& [value, count] : ValueHistogram(group_values)) {
      st_rec[0] = current_group;
      st_rec[1] = value;
      st_rec[2] = static_cast<int32_t>(count);
      ANATOMY_RETURN_IF_ERROR(st_writer.Append(st_rec));
    }
    return Status::OK();
  };

  for (;;) {
    ANATOMY_ASSIGN_OR_RETURN(bool more, group_reader.Next(group_rec));
    if (!more) break;
    if (group_rec[0] != current_group) {
      ANATOMY_RETURN_IF_ERROR(flush_group());
      current_group = group_rec[0];
      group_rows.clear();
      group_values.clear();
    }
    group_rows.push_back(static_cast<RowId>(group_rec[1]));
    group_values.push_back(group_rec[2]);
    for (size_t i = 0; i < d; ++i) {
      qit_rec[i] = group_rec[3 + i];
    }
    qit_rec[d] = current_group;
    ANATOMY_RETURN_IF_ERROR(qit_writer.Append(qit_rec));
  }
  ANATOMY_RETURN_IF_ERROR(flush_group());
  for (const Residue& res : residues) {
    if (!res.placed) {
      return Status::Internal("unplaced residue tuple; Property 2 violated");
    }
  }
  ANATOMY_RETURN_IF_ERROR(pool->FlushAll());
  ANATOMY_RETURN_IF_ERROR(group_file.FreeAll(pool));

  result.io = disk->stats();
  result.qit_pages = qit_file.num_pages();
  result.st_pages = st_file.num_pages();
  stage3_span.End();

  // Publish the measured (counted, post-stage-0) I/O to the registry so
  // benches can reproduce the paper's I/O numbers from registry reads alone.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("external_anatomize.runs")->Increment();
  registry.GetCounter("external_anatomize.io.reads")
      ->Increment(result.io.reads);
  registry.GetCounter("external_anatomize.io.writes")
      ->Increment(result.io.writes);

  if (publish) {
    // Crash-consistent commit: data pages are on disk (FlushAll above), so
    // write the manifest chain root-last and audit the result. A failure
    // anywhere here propagates and the caller's guard reclaims everything —
    // the publication is then cleanly absent.
    ANATOMY_ASSIGN_OR_RETURN(
        result.manifest,
        CommitPublication(disk, qit_file, st_file, options.l,
                          pool->retry_policy()));
    ANATOMY_RETURN_IF_ERROR(
        VerifyPublication(disk, result.manifest, pool->retry_policy()));
    result.commit_io = disk->stats() - result.io;
    return result;
  }

  // The published files themselves are left on disk only conceptually; free
  // them so repeated benchmark runs do not grow the simulated disk.
  ANATOMY_RETURN_IF_ERROR(qit_file.FreeAll(pool));
  ANATOMY_RETURN_IF_ERROR(st_file.FreeAll(pool));
  return result;
}

StatusOr<ExternalAnatomizeResult> GuardedRun(const AnatomizerOptions& options,
                                             const Microdata& microdata,
                                             Disk* disk, BufferPool* pool,
                                             bool publish) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(CheckEligibility(microdata, options.l));

  PipelineGuard guard(disk, pool);
  auto result = RunPipeline(options, microdata, disk, pool, publish);
  if (!result.ok()) {
    guard.Abort();
    return result.status();
  }
  if (pool->pinned_frames() != 0) {
    guard.Abort();
    return Status::Internal("pipeline finished with " +
                            std::to_string(pool->pinned_frames()) +
                            " frames still pinned");
  }
  return result;
}

}  // namespace

ExternalAnatomizer::ExternalAnatomizer(const AnatomizerOptions& options)
    : options_(options) {}

StatusOr<ExternalAnatomizeResult> ExternalAnatomizer::Run(
    const Microdata& microdata, Disk* disk, BufferPool* pool) const {
  return GuardedRun(options_, microdata, disk, pool, /*publish=*/false);
}

StatusOr<ExternalAnatomizeResult> ExternalAnatomizer::RunPublished(
    const Microdata& microdata, Disk* disk, BufferPool* pool) const {
  return GuardedRun(options_, microdata, disk, pool, /*publish=*/true);
}

}  // namespace anatomy
