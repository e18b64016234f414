// BufferPool: a pin-counted LRU page cache over a Disk.
//
// Reproduces the paper's "memory capacity of 50 pages": every in-flight page
// an external algorithm touches must be pinned in a frame, and the pool
// refuses to exceed its capacity, so algorithms are forced into the same
// memory discipline the paper's experiments assume (e.g. one buffer page per
// hash bucket plus one input page in Anatomize).
//
// Fault handling: all disk I/O goes through a bounded retry-with-backoff
// (storage/recovery.h) that absorbs transient kUnavailable faults; permanent
// failures (kDataLoss from a corrupt page, exhausted retries) propagate as
// Status with the pool left consistent — a failed Pin takes no pin, a failed
// eviction leaves the victim cached and evictable.

#ifndef ANATOMY_STORAGE_BUFFER_POOL_H_
#define ANATOMY_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "storage/recovery.h"

namespace anatomy {

/// The paper's experimental memory budget.
inline constexpr size_t kDefaultPoolPages = 50;

class BufferPool {
 public:
  /// `registry` receives the pool's `storage.pool.*` counters (hits, misses,
  /// evictions, writebacks, retries); null means the process-wide
  /// obs::MetricRegistry::Global().
  BufferPool(Disk* disk, size_t capacity_pages = kDefaultPoolPages,
             obs::MetricRegistry* registry = nullptr);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `id` into a frame, reading it from disk on a miss, and returns the
  /// frame's page. Fails with FailedPrecondition if every frame is pinned;
  /// on any failure no pin is taken.
  StatusOr<Page*> Pin(PageId id);

  /// Pins a freshly allocated page without a disk read (its first content
  /// comes from the caller). Returns the page id through `out_id`.
  StatusOr<Page*> PinNew(PageId* out_id);

  /// Unpins a page; `dirty` marks it for write-back on eviction/flush.
  Status Unpin(PageId id, bool dirty);

  /// Writes back all dirty frames (counting writes) and empties the pool.
  Status FlushAll();

  /// Drops `id` from the pool without write-back and frees it on disk.
  /// The page must not be pinned.
  Status Discard(PageId id);

  /// Abort-path reset: drops every frame, pinned or not, without write-back.
  /// Any unflushed data is lost by design — callers use this only when the
  /// run's output is being discarded (see PipelineGuard).
  void DropAll();

  /// Policy for retrying transient disk faults; applies to all reads and
  /// write-backs issued by this pool.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Transient I/O faults absorbed by retries so far.
  uint64_t io_retries() const { return io_retries_; }

  size_t capacity() const { return capacity_; }
  size_t frames_in_use() const { return frames_.size(); }
  size_t pinned_frames() const;

 private:
  /// The LRU list is threaded through the frames themselves, and the map
  /// nodes of evicted frames are kept for the next miss, so pinning and
  /// unpinning allocate nothing once the pool is warm. Per-record pin
  /// traffic from several shard threads at once would otherwise churn the
  /// heap (or serialize on a shared allocator's lock).
  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    /// Links in the LRU list, valid while in_lru (pin_count == 0).
    Frame* lru_prev = nullptr;
    Frame* lru_next = nullptr;
    bool in_lru = false;
  };

  using FrameMap = std::unordered_map<PageId, Frame>;

  /// Inserts a frame for `id` with no pins and clean metadata (page bytes
  /// are left for the caller to fill), reusing a spare map node if any.
  Frame& AddFrame(PageId id);
  /// Removes the frame at `it` from the map, keeping its node as a spare.
  void RemoveFrame(FrameMap::iterator it);
  void LruPushBack(Frame& frame);
  void LruRemove(Frame& frame);

  /// Both retry wrappers mirror the retries they absorb into the
  /// `storage.pool.retries` counter (as a delta of io_retries_) so the
  /// registry tracks the pre-existing accessor exactly.
  Status ReadWithRetry(PageId id, Page& out);
  Status WriteWithRetry(PageId id, const Page& in);

  /// Evicts one unpinned frame (LRU order); error if none exists. On a
  /// write-back failure the victim is left cached and evictable.
  Status EvictOne();

  Disk* disk_;
  size_t capacity_;
  RetryPolicy retry_policy_;
  uint64_t io_retries_ = 0;
  FrameMap frames_;
  /// Map nodes of removed frames, reused by AddFrame.
  std::vector<FrameMap::node_type> spare_;
  /// Unpinned frames, least recently used first.
  Frame* lru_head_ = nullptr;
  Frame* lru_tail_ = nullptr;
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_writebacks_;
  obs::Counter* obs_retries_;
};

}  // namespace anatomy

#endif  // ANATOMY_STORAGE_BUFFER_POOL_H_
