#include "common/huge_page_block.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>
#include <utility>

namespace anatomy {

HugePageBlock::HugePageBlock(size_t bytes) {
  if (bytes == 0) return;
  const size_t size = (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  // Over-map by one huge page, then unmap the slack on both sides of the
  // aligned range.
  const size_t mapped = size + kHugePageBytes;
  void* raw = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned =
      (base + kHugePageBytes - 1) & ~uintptr_t{kHugePageBytes - 1};
  if (aligned > base) munmap(raw, aligned - base);
  const uintptr_t tail = aligned + size;
  if (base + mapped > tail) {
    munmap(reinterpret_cast<void*>(tail), base + mapped - tail);
  }
  data_ = reinterpret_cast<std::byte*>(aligned);
  size_ = size;
  // Advice only: without it (or without THP) the block is still correct.
  madvise(data_, size_, MADV_HUGEPAGE);
}

HugePageBlock::~HugePageBlock() {
  if (data_ != nullptr) munmap(data_, size_);
}

HugePageBlock::HugePageBlock(HugePageBlock&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

HugePageBlock& HugePageBlock::operator=(HugePageBlock&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace anatomy
