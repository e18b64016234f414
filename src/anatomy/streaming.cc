#include "anatomy/streaming.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/recovery.h"

namespace anatomy {

namespace {

constexpr size_t kInt32Limit = static_cast<size_t>(INT32_MAX);

/// Figure 3 group-creation iterations against the given buffer state: while
/// at least l distinct values are live and at least `emit_threshold` tuples
/// are buffered, draw one random tuple from each of the l largest buckets,
/// appending it and its value to `rows` and `values`. Operates entirely on
/// caller-supplied state so Finish() can run the drain and undo it unless
/// the whole tail resolves.
void EmitGroups(size_t l, size_t emit_threshold, Rng& rng,
                std::vector<std::vector<RowId>>& buckets, size_t& buffered,
                size_t& non_empty, std::vector<RowId>& rows,
                std::vector<Code>& values) {
  std::vector<size_t> order;
  while (non_empty >= l && buffered >= emit_threshold) {
    // One iteration of Figure 3's group creation: the l largest buckets.
    order.clear();
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (!buckets[b].empty()) order.push_back(b);
    }
    std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(l),
                      order.end(), [&](size_t a, size_t b) {
                        return buckets[a].size() > buckets[b].size();
                      });
    for (size_t k = 0; k < l; ++k) {
      auto& bucket = buckets[order[k]];
      const size_t pick = rng.NextBounded(bucket.size());
      std::swap(bucket[pick], bucket.back());
      rows.push_back(bucket.back());
      bucket.pop_back();
      values.push_back(static_cast<Code>(order[k]));
      if (bucket.empty()) --non_empty;
    }
    buffered -= l;
  }
}

}  // namespace

StreamingAnatomizer::StreamingAnatomizer(
    const StreamingAnatomizerOptions& options, Code sensitive_domain)
    : options_(options), rng_(options.seed) {
  ANATOMY_CHECK(options_.l >= 2);
  ANATOMY_CHECK(sensitive_domain > 0);
  if (options_.emit_threshold == 0) {
    options_.emit_threshold = 4 * static_cast<size_t>(options_.l);
  }
  ANATOMY_CHECK(options_.emit_threshold >= static_cast<size_t>(options_.l));
  buckets_.resize(sensitive_domain);
}

Status StreamingAnatomizer::Add(RowId row, Code sensitive_value) {
  if (finished_) {
    return Status::FailedPrecondition("Add after Finish");
  }
  if (sensitive_value < 0 ||
      static_cast<size_t>(sensitive_value) >= buckets_.size()) {
    return Status::InvalidArgument("sensitive code out of domain");
  }
  auto& bucket = buckets_[sensitive_value];
  if (bucket.empty()) ++non_empty_;
  bucket.push_back(row);
  ++buffered_;
  EmitGroups(static_cast<size_t>(options_.l), options_.emit_threshold, rng_,
             buckets_, buffered_, non_empty_, drawn_rows_, drawn_values_);
  return Status::OK();
}

StatusOr<std::unique_ptr<RecordFile>> StreamingAnatomizer::WriteWindow(
    Disk* disk, BufferPool* pool,
    const std::vector<FlushedAmendment>& tail) const {
  // The window's records in order: every group not yet flushed, its drawn
  // rows and then the residues Finish placed into it, followed by `tail`.
  const size_t l = static_cast<size_t>(options_.l);
  const auto for_each_record = [&](auto&& fn) -> Status {
    for (size_t g = flushed_groups_; g < emitted_groups(); ++g) {
      for (size_t i = g * l; i < (g + 1) * l; ++i) {
        ANATOMY_RETURN_IF_ERROR(
            fn({static_cast<GroupId>(g), drawn_rows_[i], drawn_values_[i]}));
      }
      for (const FlushedAmendment& r : unflushed_residues_) {
        if (r.group == g) ANATOMY_RETURN_IF_ERROR(fn(r));
      }
    }
    for (const FlushedAmendment& r : tail) ANATOMY_RETURN_IF_ERROR(fn(r));
    return Status::OK();
  };
  // The record format is three int32 columns; ids that do not fit are a
  // caller error, never a silent truncation.
  ANATOMY_RETURN_IF_ERROR(for_each_record([](const FlushedAmendment& r) {
    if (static_cast<size_t>(r.group) <= kInt32Limit &&
        static_cast<size_t>(r.row) <= kInt32Limit) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "group id " + std::to_string(r.group) + " or row id " +
        std::to_string(r.row) + " exceeds the int32 record format");
  }));
  PipelineGuard guard(disk, pool);
  auto file = std::make_unique<RecordFile>(disk, 3);
  const Status status = [&]() -> Status {
    RecordWriter writer(pool, file.get());
    std::vector<int32_t> rec(3);
    ANATOMY_RETURN_IF_ERROR(for_each_record([&](const FlushedAmendment& r) {
      rec = {static_cast<int32_t>(r.group), static_cast<int32_t>(r.row),
             r.value};
      return writer.Append(rec);
    }));
    return pool->FlushAll();
  }();
  if (!status.ok()) {
    // Reclaim the partial window; the flush cursor stays where it was, so
    // the caller can retry the identical window after the fault clears. The
    // in-memory state (buckets, groups) is untouched — the streamer keeps
    // accepting Add()s.
    guard.Abort();
    return status;
  }
  return file;
}

StatusOr<std::unique_ptr<RecordFile>> StreamingAnatomizer::FlushWindow(
    Disk* disk, BufferPool* pool) {
  if (finished_) {
    return Status::FailedPrecondition(
        "FlushWindow after Finish (use FlushFinal for the delta window)");
  }
  obs::ScopedSpan flush_span("streaming.flush_window", "streaming");
  ANATOMY_ASSIGN_OR_RETURN(std::unique_ptr<RecordFile> file,
                           WriteWindow(disk, pool, {}));
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("streaming.windows_flushed")->Increment();
  registry.GetCounter("streaming.groups_flushed")
      ->Increment(emitted_groups() - flushed_groups_);
  flushed_groups_ = emitted_groups();
  return file;
}

StatusOr<Partition> StreamingAnatomizer::Finish() {
  if (finished_) return Status::FailedPrecondition("Finish called twice");
  obs::ScopedSpan finish_span("streaming.finish", "streaming");
  const size_t l = static_cast<size_t>(options_.l);

  // ---- Plan phase: everything below runs on copies, or appends to the
  // drawn arrays and truncates them again on failure, so a failed Finish
  // leaves the streamer exactly as it was — same buffered(), same groups,
  // same rng — and the caller may Add() more tuples and retry.
  Rng rng = rng_;
  std::vector<std::vector<RowId>> buckets = buckets_;
  size_t buffered = buffered_;
  size_t non_empty = non_empty_;
  const size_t drawn_before = drawn_rows_.size();

  // Drain the buffer with the batch rule: the threshold drops to l (any l
  // distinct live values make a group), leaving at most l-1 residues under
  // eligibility.
  EmitGroups(l, l, rng, buckets, buffered, non_empty, drawn_rows_,
             drawn_values_);

  const size_t total_groups = emitted_groups();
  if (total_groups == 0) {
    return Status::FailedPrecondition(
        "stream ended before any group could be formed");
  }

  // Residue placement plan: each leftover tuple joins a group lacking its
  // value (Line 11's S'). Unflushed groups are preferred so groups already
  // checkpointed by FlushWindow stay byte-accurate; only when every unflushed
  // group contains the value does the tuple amend a flushed group, and that
  // amendment is recorded for FlushFinal's delta window. Candidates are
  // collected in ascending group order, so the rng draw sees the same
  // sequence as the original linear scan — output stays byte-identical for
  // a fixed seed. Buckets hold distinct values, so placing a bucket's tuples
  // only changes membership of that bucket's value.
  std::vector<FlushedAmendment> unflushed;
  std::vector<FlushedAmendment> amendments;
  std::vector<std::pair<GroupId, RowId>> residues;  // (group, row)
  std::vector<uint8_t> has_value;  // has_value[g]: group g holds the value
  std::vector<size_t> candidates;
  size_t stranded = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].empty()) continue;
    const Code value = static_cast<Code>(b);
    has_value.assign(total_groups, 0);
    for (size_t i = 0; i < drawn_values_.size(); ++i) {
      if (drawn_values_[i] == value) has_value[i / l] = 1;
    }
    for (RowId row : buckets[b]) {
      candidates.clear();
      for (size_t g = flushed_groups_; g < total_groups; ++g) {
        if (has_value[g] == 0) candidates.push_back(g);
      }
      bool amends_flushed = false;
      if (candidates.empty() && options_.allow_flushed_amendments) {
        for (size_t g = 0; g < flushed_groups_; ++g) {
          if (has_value[g] == 0) candidates.push_back(g);
        }
        amends_flushed = !candidates.empty();
      }
      if (candidates.empty()) {
        // Keep planning the rest so the error reports the true total of
        // stranded tuples, not just the first one found.
        ++stranded;
        continue;
      }
      const GroupId g = static_cast<GroupId>(
          candidates[rng.NextBounded(candidates.size())]);
      has_value[g] = 1;
      (amends_flushed ? amendments : unflushed).push_back({g, row, value});
      residues.push_back({g, row});
    }
  }
  if (stranded > 0) {
    drawn_rows_.resize(drawn_before);
    drawn_values_.resize(drawn_before);
    return Status::FailedPrecondition(
        "stream tail not absorbable: " + std::to_string(stranded) + " of " +
        std::to_string(buffered) +
        " residual tuples have a sensitive value present in every " +
        (options_.allow_flushed_amendments
             ? std::string("emitted group (raise emit_threshold or buffer "
                           "longer)")
             : std::string("unflushed group, and amending flushed groups is "
                           "disabled (allow_flushed_amendments)")));
  }

  // ---- Commit phase: nothing below can fail. ----
  rng_ = rng;
  unflushed_residues_ = std::move(unflushed);
  flushed_amendments_ = std::move(amendments);
  for (auto& bucket : buckets_) bucket.clear();
  buffered_ = 0;
  non_empty_ = 0;
  finished_ = true;

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("streaming.finishes")->Increment();
  registry.GetCounter("streaming.flushed_amendments")
      ->Increment(flushed_amendments_.size());
  return PartitionWithResidues(drawn_rows_, l, residues);
}

StatusOr<std::unique_ptr<RecordFile>> StreamingAnatomizer::FlushFinal(
    Disk* disk, BufferPool* pool) {
  if (!finished_) {
    return Status::FailedPrecondition("FlushFinal before successful Finish");
  }
  obs::ScopedSpan final_span("streaming.flush_final", "streaming");
  // The amendment records for flushed groups go last: replaying every
  // FlushWindow file plus this one reconstructs the partition Finish
  // returned, record for record.
  ANATOMY_ASSIGN_OR_RETURN(std::unique_ptr<RecordFile> file,
                           WriteWindow(disk, pool, flushed_amendments_));
  obs::MetricRegistry::Global()
      .GetCounter("streaming.final_flushes")
      ->Increment();
  return file;
}

}  // namespace anatomy
