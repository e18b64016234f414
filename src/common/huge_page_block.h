// One anonymous memory block for read-only arrays that hot loops stream
// through (DESIGN.md §11). The block is 2 MiB-aligned, its size is rounded
// up to a multiple of 2 MiB, and it is advised MADV_HUGEPAGE before anything
// touches it, so on a host whose transparent huge pages run in `madvise`
// mode the first-touch faults map huge pages and scans over the block miss
// the TLB far less. If THP is off or the advice fails, the memory is the
// same, only backed by small pages.
//
// There is nothing else to it: no size classes, no free lists, no global
// state. The owner carves the block into its arrays and frees it as a
// whole.

#ifndef ANATOMY_COMMON_HUGE_PAGE_BLOCK_H_
#define ANATOMY_COMMON_HUGE_PAGE_BLOCK_H_

#include <cstddef>

namespace anatomy {

class HugePageBlock {
 public:
  /// The alignment and size granularity: one x86-64 huge page.
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  HugePageBlock() = default;
  /// Maps at least `bytes` zeroed bytes (none when `bytes` is 0). Throws
  /// std::bad_alloc when the mapping fails.
  explicit HugePageBlock(size_t bytes);
  ~HugePageBlock();

  HugePageBlock(HugePageBlock&& other) noexcept;
  HugePageBlock& operator=(HugePageBlock&& other) noexcept;
  HugePageBlock(const HugePageBlock&) = delete;
  HugePageBlock& operator=(const HugePageBlock&) = delete;

  std::byte* data() const { return data_; }
  /// The mapped size: the requested bytes rounded up to kHugePageBytes.
  size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace anatomy

#endif  // ANATOMY_COMMON_HUGE_PAGE_BLOCK_H_
