// Streaming anatomization: groups are emitted while tuples arrive.
//
// The paper's Section 7 points at dynamic settings as future work. This
// extension maintains Anatomize's bucket structure incrementally: tuples are
// added one at a time, and whenever the buffer holds enough diversity
// (at least l non-empty buckets and at least `emit_threshold` buffered
// tuples) a group is formed from the l largest buckets, exactly like one
// iteration of Figure 3's group-creation step. Every emitted group therefore
// has l tuples with pairwise-distinct sensitive values — l-diverse by
// construction, before the stream ends.
//
// Finish() resolves the tail: the remaining buffered tuples are anatomized
// in one shot when they are still l-eligible, and the final <= l-1 residues
// are placed into earlier groups that lack their sensitive value.
//
// Flush consistency contract: FlushWindow() durably checkpoints emitted
// groups, and a checkpointed RecordFile must never silently disagree with
// the partition Finish() later returns. Finish() therefore places residues
// into *unflushed* groups whenever one lacks the residue's value; when only
// an already-flushed group qualifies, the placement is recorded as a flushed
// amendment (exposed via flushed_amendments() and written by FlushFinal(),
// the final delta window) — or, with allow_flushed_amendments = false,
// Finish() fails instead. Finish() is transactional: placements are planned
// first and committed only on full success, so a failed Finish() leaves the
// streamer exactly as it was (same buffered count, same groups) and the
// error reports the true number of stranded tuples; the caller may keep
// Add()ing and retry. Orderings that strand unplaceable tuples are reported
// as Status errors, never as a silently weaker publication.

#ifndef ANATOMY_ANATOMY_STREAMING_H_
#define ANATOMY_ANATOMY_STREAMING_H_

#include <memory>
#include <vector>

#include "anatomy/partition.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "table/schema.h"

namespace anatomy {

struct StreamingAnatomizerOptions {
  int l = 10;
  uint64_t seed = 1;
  /// Minimum buffered tuples before a group may be emitted. Larger values
  /// buy the largest-bucket heuristic more slack (fewer stranded tuples at
  /// Finish) at the price of latency. Must be >= l; defaults to 4 * l when 0.
  size_t emit_threshold = 0;
  /// When a Finish() residue fits no unflushed group, may it amend an
  /// already-flushed group (the amendment is then part of FlushFinal's delta
  /// window)? With false, Finish() fails instead of ever diverging from a
  /// durable checkpoint that cannot be amended downstream.
  bool allow_flushed_amendments = true;
};

/// A residue placement into a group that was already durably flushed when
/// Finish() ran: the checkpointed window lacks this record, so the final
/// delta window (FlushFinal) must carry it.
struct FlushedAmendment {
  GroupId group = 0;
  RowId row = 0;
  Code value = 0;

  bool operator==(const FlushedAmendment&) const = default;
};

class StreamingAnatomizer {
 public:
  /// `sensitive_domain` bounds the sensitive codes that may be Added.
  StreamingAnatomizer(const StreamingAnatomizerOptions& options,
                      Code sensitive_domain);

  /// Feeds one tuple; emits zero or more complete groups internally.
  /// Returns InvalidArgument for out-of-domain codes.
  Status Add(RowId row, Code sensitive_value);

  /// Groups fully formed so far (each of exactly l tuples with distinct
  /// sensitive values). Indices are stable; more groups only get appended.
  size_t emitted_groups() const {
    return drawn_rows_.size() / static_cast<size_t>(options_.l);
  }

  /// Tuples still buffered (not yet part of any group).
  size_t buffered() const { return buffered_; }

  /// Durably checkpoints the window of groups emitted since the last
  /// successful flush: writes them as [group_id, row_id, sensitive] records
  /// into a fresh RecordFile on `disk` and advances the flush cursor. On any
  /// I/O failure (e.g. an injected disk fault) the partial file is reclaimed,
  /// the pool is emptied, the cursor stays put, and the streamer remains
  /// fully usable — the same window can be re-flushed once the fault clears.
  /// Row and group ids beyond INT32_MAX do not fit the 3-column int32 record
  /// format and fail with InvalidArgument instead of silently truncating.
  /// The caller owns the returned file (free with FreeAll) and must give this
  /// call exclusive use of `pool`.
  StatusOr<std::unique_ptr<RecordFile>> FlushWindow(Disk* disk,
                                                    BufferPool* pool);

  /// Groups already durably flushed by FlushWindow.
  size_t flushed_groups() const { return flushed_groups_; }

  /// Ends the stream: anatomizes the buffered tail and returns the complete
  /// partition over every row ever Added. Transactional — on failure the
  /// streamer is unchanged (buffered() keeps its value) and more tuples may
  /// be Added before retrying.
  StatusOr<Partition> Finish();

  /// Residues that Finish() had to place into already-flushed groups (empty
  /// until a successful Finish; always empty when nothing was flushed or
  /// every residue fit an unflushed group). Checkpointed windows plus these
  /// amendments plus FlushFinal's group records reconstruct the partition.
  const std::vector<FlushedAmendment>& flushed_amendments() const {
    return flushed_amendments_;
  }

  /// The final delta window: writes every group not yet covered by a
  /// FlushWindow checkpoint plus the flushed-group amendment records, in the
  /// same [group_id, row_id, sensitive] format. Only valid after a
  /// successful Finish(); replaying all FlushWindow files plus this file
  /// yields exactly the returned partition. Same fault contract as
  /// FlushWindow (failed flushes reclaim and can be retried).
  StatusOr<std::unique_ptr<RecordFile>> FlushFinal(Disk* disk,
                                                   BufferPool* pool);

 private:
  /// Writes every group not yet flushed, with the residues Finish placed
  /// into it, then `tail`, as [group_id, row_id, sensitive] records into a
  /// fresh file. On failure the file is reclaimed and nothing else changes.
  StatusOr<std::unique_ptr<RecordFile>> WriteWindow(
      Disk* disk, BufferPool* pool,
      const std::vector<FlushedAmendment>& tail) const;

  StreamingAnatomizerOptions options_;
  Rng rng_;
  std::vector<std::vector<RowId>> buckets_;  // per sensitive code
  size_t buffered_ = 0;
  size_t non_empty_ = 0;
  /// The emitted groups' rows and sensitive values, flat: group g's are
  /// drawn_rows_[g * l, (g + 1) * l) and the same range of drawn_values_.
  std::vector<RowId> drawn_rows_;
  std::vector<Code> drawn_values_;
  /// Finish's residue placements into unflushed groups, in placement order.
  std::vector<FlushedAmendment> unflushed_residues_;
  std::vector<FlushedAmendment> flushed_amendments_;
  size_t flushed_groups_ = 0;
  bool finished_ = false;
};

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_STREAMING_H_
