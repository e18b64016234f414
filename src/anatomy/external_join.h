// External natural join QIT |><| ST (Lemma 1) on the simulated disk.
//
// The adversary's reconstruction view (Table 4) over publications too large
// for memory: the QIT is sorted by Group-ID with the external merge sort (the
// ST is in Group-ID order already) and merge-joined with the ST in one pass,
// all under the buffer-pool budget and with counted I/O. Record layouts:
//   QIT file : [qi_1 .. qi_d, group_id]       (d + 1 fields)
//   ST file  : [group_id, sensitive, count]   (3 fields)
//   join file: [qi_1 .. qi_d, group_id, sensitive, count]  (d + 3 fields)

#ifndef ANATOMY_ANATOMY_EXTERNAL_JOIN_H_
#define ANATOMY_ANATOMY_EXTERNAL_JOIN_H_

#include <memory>

#include "anatomy/anatomized_tables.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/page_file.h"

namespace anatomy {

struct ExternalJoinResult {
  /// The join output (left on disk for the caller; free with FreeAll).
  std::unique_ptr<RecordFile> joined;
  /// Number of join records produced (= sum over QIT tuples of their group's
  /// distinct sensitive values).
  uint64_t records = 0;
  /// I/O attributable to the join (file loading excluded).
  IoStats io;
};

/// Materializes `tables` as QIT/ST record files on `disk` (uncounted, like a
/// pre-existing publication), then computes the sort-merge join through
/// `pool`. The QIT is shuffled to disk in row order (which for published
/// tables is arbitrary), so the sort phase does real work. On failure every
/// page the join allocated is reclaimed and the pool is emptied.
StatusOr<ExternalJoinResult> ExternalJoinQitSt(const AnatomizedTables& tables,
                                               Disk* disk, BufferPool* pool);

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_EXTERNAL_JOIN_H_
