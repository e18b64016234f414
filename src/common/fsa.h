// A 3-level hierarchical bitset with a 32 -> 1024 -> 32768 fan-out,
// modeled on xvmem's external fixed-size-allocator page strategy. One u32
// root word indexes up to 32 level-1 words, each level-1 bit indexes one
// level-2 (leaf) word, each leaf bit is one tracked slot — so find-first-set
// over up to 32768 slots is three countr_zero steps, and iteration skips
// empty 32-slot and 1024-slot runs without touching their words.
//
// Its one consumer is the Bitmap word-occupancy summary behind sparse
// set-bit iteration (bit set = 64-bit bitmap word nonzero).
//
// Not thread-safe; a Bitmap summary is confined to its bitmap.

#ifndef ANATOMY_COMMON_FSA_H_
#define ANATOMY_COMMON_FSA_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace anatomy {

class HierBitset {
 public:
  /// 32 * 32 * 32: the deepest fan-out one u32 root can index.
  static constexpr uint32_t kMaxBits = 32768;
  static constexpr uint32_t kNpos = UINT32_MAX;

  HierBitset() = default;

  /// (Re)initializes for `capacity` bits, all clear. Reuses the existing
  /// storage when the capacity fits, so steady-state rebuilds allocate
  /// nothing. capacity must be <= kMaxBits.
  void Init(uint32_t capacity);
  /// (Re)initializes with every bit of [0, capacity) set — a freshly
  /// formatted slab page where every slot is free.
  void InitFull(uint32_t capacity);

  uint32_t capacity() const { return cap_; }
  bool any() const { return l0_ != 0; }

  bool Test(uint32_t i) const {
    return (leaf(i >> 5) >> (i & 31)) & 1u;
  }

  void Set(uint32_t i) {
    const uint32_t w2 = i >> 5;
    leaf(w2) |= 1u << (i & 31);
    l1(w2 >> 5) |= 1u << (w2 & 31);
    l0_ |= 1u << (w2 >> 5);
  }

  void Clear(uint32_t i) {
    const uint32_t w2 = i >> 5;
    if ((leaf(w2) &= ~(1u << (i & 31))) == 0) {
      const uint32_t w1 = w2 >> 5;
      if ((l1(w1) &= ~(1u << (w2 & 31))) == 0) {
        l0_ &= ~(1u << w1);
      }
    }
  }

  /// Lowest set bit, or kNpos when empty. Three countr_zero descents.
  uint32_t FindFirstSet() const {
    if (l0_ == 0) return kNpos;
    const uint32_t w1 = static_cast<uint32_t>(std::countr_zero(l0_));
    const uint32_t w2 =
        (w1 << 5) | static_cast<uint32_t>(std::countr_zero(l1(w1)));
    return (w2 << 5) | static_cast<uint32_t>(std::countr_zero(leaf(w2)));
  }

  /// First set bit >= i, or kNpos.
  uint32_t NextSet(uint32_t i) const;

  /// Calls fn(i) for every set bit, ascending, skipping empty runs at both
  /// summary levels.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    uint32_t m0 = l0_;
    while (m0 != 0) {
      const uint32_t w1 = static_cast<uint32_t>(std::countr_zero(m0));
      m0 &= m0 - 1;
      uint32_t m1 = l1(w1);
      while (m1 != 0) {
        const uint32_t w2 =
            (w1 << 5) | static_cast<uint32_t>(std::countr_zero(m1));
        m1 &= m1 - 1;
        uint32_t m2 = leaf(w2);
        while (m2 != 0) {
          fn((w2 << 5) | static_cast<uint32_t>(std::countr_zero(m2)));
          m2 &= m2 - 1;
        }
      }
    }
  }

  /// Bulk-build access: the leaf words (one bit per tracked slot), for
  /// writers that compute whole leaf words in their own pass (the fused
  /// Bitmap summary builders) and then call RebuildUpper() once.
  uint32_t* leaf_words() { return store_.data() + n1_; }
  const uint32_t* leaf_words() const { return store_.data() + n1_; }
  uint32_t num_leaf_words() const { return n2_; }

  /// Recomputes both summary levels from the leaf words.
  void RebuildUpper();

 private:
  uint32_t& leaf(uint32_t w2) { return store_[n1_ + w2]; }
  uint32_t leaf(uint32_t w2) const { return store_[n1_ + w2]; }
  uint32_t& l1(uint32_t w1) { return store_[w1]; }
  uint32_t l1(uint32_t w1) const { return store_[w1]; }

  uint32_t cap_ = 0;
  /// Leaf / level-1 word counts: n2_ = ceil(cap/32), n1_ = ceil(n2_/32).
  uint32_t n2_ = 0;
  uint32_t n1_ = 0;
  uint32_t l0_ = 0;
  /// [l1 words | leaf words].
  std::vector<uint32_t> store_;
};

}  // namespace anatomy

#endif  // ANATOMY_COMMON_FSA_H_
