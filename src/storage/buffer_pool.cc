#include "storage/buffer_pool.h"

#include "common/check.h"

namespace anatomy {

BufferPool::BufferPool(Disk* disk, size_t capacity_pages,
                       obs::MetricRegistry* registry)
    : disk_(disk), capacity_(capacity_pages) {
  ANATOMY_CHECK(disk_ != nullptr);
  ANATOMY_CHECK(capacity_ > 0);
  if (registry == nullptr) registry = &obs::MetricRegistry::Global();
  obs_hits_ = registry->GetCounter("storage.pool.hits");
  obs_misses_ = registry->GetCounter("storage.pool.misses");
  obs_evictions_ = registry->GetCounter("storage.pool.evictions");
  obs_writebacks_ = registry->GetCounter("storage.pool.writebacks");
  obs_retries_ = registry->GetCounter("storage.pool.retries");
}

BufferPool::Frame& BufferPool::AddFrame(PageId id) {
  Frame* frame;
  if (spare_.empty()) {
    frame = &frames_[id];
  } else {
    FrameMap::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = id;
    frame = &frames_.insert(std::move(node)).position->second;
  }
  frame->id = id;
  frame->pin_count = 0;
  frame->dirty = false;
  frame->in_lru = false;
  return *frame;
}

void BufferPool::RemoveFrame(FrameMap::iterator it) {
  if (it->second.in_lru) LruRemove(it->second);
  spare_.push_back(frames_.extract(it));
}

void BufferPool::LruPushBack(Frame& frame) {
  frame.lru_prev = lru_tail_;
  frame.lru_next = nullptr;
  (lru_tail_ != nullptr ? lru_tail_->lru_next : lru_head_) = &frame;
  lru_tail_ = &frame;
  frame.in_lru = true;
}

void BufferPool::LruRemove(Frame& frame) {
  (frame.lru_prev != nullptr ? frame.lru_prev->lru_next : lru_head_) =
      frame.lru_next;
  (frame.lru_next != nullptr ? frame.lru_next->lru_prev : lru_tail_) =
      frame.lru_prev;
  frame.in_lru = false;
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (const auto& [id, frame] : frames_) n += (frame.pin_count > 0);
  return n;
}

Status BufferPool::ReadWithRetry(PageId id, Page& out) {
  const uint64_t before = io_retries_;
  Status status = RunWithRetry(retry_policy_, &io_retries_,
                               [&] { return disk_->ReadPage(id, out); });
  if (io_retries_ != before) obs_retries_->Increment(io_retries_ - before);
  return status;
}

Status BufferPool::WriteWithRetry(PageId id, const Page& in) {
  const uint64_t before = io_retries_;
  Status status = RunWithRetry(retry_policy_, &io_retries_,
                               [&] { return disk_->WritePage(id, in); });
  if (io_retries_ != before) obs_retries_->Increment(io_retries_ - before);
  return status;
}

Status BufferPool::EvictOne() {
  if (lru_head_ == nullptr) {
    return Status::FailedPrecondition(
        "buffer pool exhausted: all " + std::to_string(capacity_) +
        " frames are pinned");
  }
  const PageId victim = lru_head_->id;
  auto it = frames_.find(victim);
  if (it == frames_.end()) {
    return Status::Internal("LRU victim page " + std::to_string(victim) +
                            " is missing from the frame table");
  }
  if (it->second.dirty) {
    // Write back before unhooking anything: on failure the victim stays at
    // the LRU front, still cached and still evictable once the disk heals.
    ANATOMY_RETURN_IF_ERROR(WriteWithRetry(victim, it->second.page));
    obs_writebacks_->Increment();
  }
  RemoveFrame(it);
  obs_evictions_->Increment();
  return Status::OK();
}

StatusOr<Page*> BufferPool::Pin(PageId id) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    Frame& frame = it->second;
    if (frame.in_lru) LruRemove(frame);
    ++frame.pin_count;
    obs_hits_->Increment();
    return &frame.page;
  }
  obs_misses_->Increment();
  if (frames_.size() >= capacity_) {
    ANATOMY_RETURN_IF_ERROR(EvictOne());
  }
  Frame& frame = AddFrame(id);
  frame.pin_count = 1;
  Status read = ReadWithRetry(id, frame.page);
  if (!read.ok()) {
    // A failed Pin must not leak a pinned frame.
    RemoveFrame(frames_.find(id));
    return read;
  }
  return &frame.page;
}

StatusOr<Page*> BufferPool::PinNew(PageId* out_id) {
  if (frames_.size() >= capacity_) {
    ANATOMY_RETURN_IF_ERROR(EvictOne());
  }
  const PageId id = disk_->AllocatePage();
  Frame& frame = AddFrame(id);
  frame.pin_count = 1;
  frame.dirty = true;  // Fresh pages must reach disk even if never re-written.
  frame.page.Clear();
  *out_id = id;
  return &frame.page;
}

Status BufferPool::Unpin(PageId id, bool dirty) {
  auto it = frames_.find(id);
  if (it == frames_.end() || it->second.pin_count == 0) {
    return Status::FailedPrecondition("unpin of page " + std::to_string(id) +
                                      " that is not pinned");
  }
  Frame& frame = it->second;
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) LruPushBack(frame);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& [id, frame] : frames_) {
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition("flush with pinned page " +
                                        std::to_string(id));
    }
    if (frame.dirty) {
      ANATOMY_RETURN_IF_ERROR(WriteWithRetry(id, frame.page));
      obs_writebacks_->Increment();
    }
  }
  while (!frames_.empty()) RemoveFrame(frames_.begin());
  return Status::OK();
}

Status BufferPool::Discard(PageId id) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    if (it->second.pin_count > 0) {
      return Status::FailedPrecondition("discard of pinned page " +
                                        std::to_string(id));
    }
    RemoveFrame(it);
  }
  disk_->FreePage(id);
  return Status::OK();
}

void BufferPool::DropAll() {
  frames_.clear();
  spare_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
}

}  // namespace anatomy
