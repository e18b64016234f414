// Crash-consistent publication of QIT/ST page files.
//
// The external pipelines publish a pair of record files (the QIT and the ST
// of Section 1.2). A half-written pair is a correctness hazard — adversaries
// inspect published artifacts — so publication is committed via a manifest
// written LAST: the data pages are flushed first, then a chain of manifest
// pages describing them is written tail-to-head, and only the final write of
// the chain's root makes the publication exist. A crash anywhere before that
// root write leaves orphan pages that abort-path recovery reclaims
// (storage/recovery.h); the publication is then cleanly absent and the run
// is repeatable. There is no half-published state.
//
// VerifyPublication is the read-back audit: it re-reads every published page
// (surfacing torn writes and bit flips as kDataLoss via the page checksums)
// and validates group-file consistency between the QIT and the ST, so no
// silent corruption escapes into analysts' hands.

#ifndef ANATOMY_STORAGE_PUBLICATION_H_
#define ANATOMY_STORAGE_PUBLICATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/page_file.h"
#include "storage/recovery.h"

namespace anatomy {

/// One published record file as described by a manifest.
struct PublishedFileMeta {
  uint32_t fields = 0;
  uint64_t records = 0;
  std::vector<PageId> pages;
};

/// In-memory image of an on-disk manifest chain. `root` is the handle a
/// catalog would store in its superblock; everything else is recoverable
/// from the chain via LoadPublication.
struct StorageManifest {
  PageId root = kInvalidPageId;
  int32_t l = 0;
  PublishedFileMeta qit;
  PublishedFileMeta st;
  /// The manifest chain's own pages, root first (for DiscardPublication).
  std::vector<PageId> manifest_pages;
};

/// Commits a flushed QIT/ST pair: writes the manifest chain continuation
/// pages first and the root page last, so the publication atomically comes
/// into existence with that final write. The data pages of `qit`/`st` must
/// already be on disk (pool flushed). Transient faults are retried under
/// `retry`.
StatusOr<StorageManifest> CommitPublication(Disk* disk, const RecordFile& qit,
                                            const RecordFile& st, int32_t l,
                                            const RetryPolicy& retry = {});

/// Reads a manifest chain back from its root page. Returns kDataLoss when
/// a file's record width is 0 or wider than a page, or its record count
/// exceeds what its listed pages can hold, so callers may size buffers from
/// the returned counts.
StatusOr<StorageManifest> LoadPublication(Disk* disk, PageId root,
                                          const RetryPolicy& retry = {});

/// Cheap liveness probe: one unretried read of the manifest root, checking
/// only the signature. This is what a serving node touches per request to
/// prove its publication is still reachable — it surfaces device faults
/// (crash, transient, stall) without the full-chain cost of LoadPublication;
/// the caller owns retry/deadline semantics.
Status ProbePublicationRoot(Disk* disk, PageId root);

/// Re-reads every page of `manifest` (manifest chain + QIT + ST), verifying
/// checksums, and validates group-file consistency: record counts match the
/// manifest, group ids lie in [0, QIT records), the QIT and the ST name the
/// same groups, per-group QIT cardinality equals the group's ST count sum,
/// and (when manifest.l > 0) every group has at least l distinct sensitive
/// values. Returns kDataLoss for any corrupted page, FailedPrecondition for
/// consistency violations.
Status VerifyPublication(Disk* disk, const StorageManifest& manifest,
                         const RetryPolicy& retry = {});

/// Streams the records of one published file straight from disk, a page at
/// a time (reads are retried under `retry`; corruption surfaces as
/// kDataLoss). Holds one decoded page and never sizes anything from the
/// manifest's record count:
///
///   PublishedRecordReader reader(disk, meta, retry);
///   while (reader.Next()) Use(reader.record());
///   ANATOMY_RETURN_IF_ERROR(reader.status());
///
/// `disk` and `meta` must outlive the reader.
class PublishedRecordReader {
 public:
  PublishedRecordReader(Disk* disk, const PublishedFileMeta& meta,
                        const RetryPolicy& retry = {});
  PublishedRecordReader(const PublishedRecordReader&) = delete;
  PublishedRecordReader& operator=(const PublishedRecordReader&) = delete;

  /// Advances to the next record. Returns false at the end of the file or
  /// at the first error; status() tells which.
  bool Next();

  /// The current record: meta.fields values, valid until the next Next().
  std::span<const int32_t> record() const {
    return {values_.data() + current_, fields_};
  }

  /// OK unless the file's geometry is impossible, a page failed to read or
  /// claims more records than fit, or the file holds a record count other
  /// than the manifest's.
  const Status& status() const { return status_; }

 private:
  bool LoadNextPage();

  Disk* disk_;
  const PublishedFileMeta& meta_;
  RetryPolicy retry_;
  size_t fields_;
  size_t page_index_ = 0;    // next page of meta_.pages to load
  size_t in_page_ = 0;       // records decoded from the current page
  size_t next_in_page_ = 0;  // records of the current page handed out
  size_t current_ = 0;       // offset of the current record in values_
  uint64_t records_read_ = 0;
  std::vector<int32_t> values_;  // the current page's records, row-major
  Status status_;
};

/// Frees a committed publication (data + manifest chain), dropping any pool
/// frames still caching its pages. After this the disk is as if the
/// publication never existed.
Status DiscardPublication(Disk* disk, BufferPool* pool,
                          const StorageManifest& manifest);

}  // namespace anatomy

#endif  // ANATOMY_STORAGE_PUBLICATION_H_
