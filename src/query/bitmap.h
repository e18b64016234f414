// Fixed-size bitmaps used by the bitmap index, the exact evaluator and the
// scalar reference estimator: the AND-NOT combinators the prefix-OR index is
// built from, and template set-bit iteration that inlines its callback (no
// std::function, no virtual dispatch on the hot path). The block kernel in
// group_kernels reads the words directly.

#ifndef ANATOMY_QUERY_BITMAP_H_
#define ANATOMY_QUERY_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anatomy {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits);

  size_t size() const { return num_bits_; }

  void Set(size_t i);
  bool Test(size_t i) const;
  void SetAll();

  /// Resizes to `num_bits` with every bit clear. Unlike assigning a fresh
  /// Bitmap(num_bits), this reuses the existing word storage, so scratch
  /// bitmaps reach a zero-allocation steady state.
  void Reset(size_t num_bits);

  /// this |= other. Sizes must match.
  void OrWith(const Bitmap& other);
  /// this &= other. Sizes must match.
  void AndWith(const Bitmap& other);

  /// this |= hi & ~*lo in one pass (lo == nullptr means this |= hi). The
  /// prefix-OR index expresses every consecutive-code run this way:
  /// rows with code in [lo, hi] = prefix[hi] AND-NOT prefix[lo - 1].
  void OrWithAndNot(const Bitmap& hi, const Bitmap* lo);

  /// Number of set bits: one popcount per word.
  uint64_t Count() const;

  /// Calls fn(i) for every set bit in ascending order. The callback is a
  /// template parameter so it inlines (the former std::function signature
  /// cost an indirect call per row).
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        fn((wi << 6) + static_cast<size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_BITMAP_H_
