// Fixed-size bitmaps used by the bitmap index, the exact evaluator and the
// scalar reference estimator: the AND-NOT combinators the prefix-OR index is
// built from, and template set-bit iteration that inlines its callback (no
// std::function, no virtual dispatch on the hot path).
//
// A bitmap can carry a word-occupancy summary: a HierBitset with one bit per
// 64-bit word (set iff the word is nonzero) plus a cached popcount. The
// summary is built either fused into AndWith/AssignAnd (the scalar
// reference's and the exact evaluator's conjunction path, where the words
// are streaming through registers anyway) or explicitly via BuildSummary()
// (the index's value bitmaps). With a summary, Count() is O(1) and the
// set-bit walk skips empty 32- and 1024-word runs — the win on
// low-selectivity predicates where most words are zero. Every result is
// integer-identical to the plain walk: the summary only elides words that
// are provably zero. The block kernel in group_kernels reads no summary.

#ifndef ANATOMY_QUERY_BITMAP_H_
#define ANATOMY_QUERY_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fsa.h"

namespace anatomy {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits);

  size_t size() const { return num_bits_; }

  void Set(size_t i);
  bool Test(size_t i) const;
  void ClearAll();
  void SetAll();

  /// Resizes to `num_bits` with every bit clear. Unlike assigning a fresh
  /// Bitmap(num_bits), this reuses the existing word storage, so scratch
  /// bitmaps reach a zero-allocation steady state.
  void Reset(size_t num_bits);

  /// this |= other. Sizes must match.
  void OrWith(const Bitmap& other);
  /// this &= other. Sizes must match. Rebuilds the occupancy summary fused
  /// into the AND pass when summaries are enabled and the bitmap fits.
  void AndWith(const Bitmap& other);
  /// this &= ~other. Sizes must match.
  void AndNotWith(const Bitmap& other);

  /// this |= hi & ~*lo in one pass (lo == nullptr means this |= hi). The
  /// prefix-OR index expresses every consecutive-code run this way:
  /// rows with code in [lo, hi] = prefix[hi] AND-NOT prefix[lo - 1].
  void OrWithAndNot(const Bitmap& hi, const Bitmap* lo);

  /// this = a & b in one pass (takes a's size; no SetAll, no copy).
  /// Rebuilds the occupancy summary fused into the AND pass when summaries
  /// are enabled and the bitmap fits.
  void AssignAnd(const Bitmap& a, const Bitmap& b);

  /// (Re)derives the word-occupancy summary from the current words. A no-op
  /// that leaves the bitmap summary-less when summaries are disabled or the
  /// bitmap exceeds HierBitset::kMaxBits words (~2.1M bits). Mutators other
  /// than AndWith/AssignAnd drop the summary; call this again afterwards if
  /// the bitmap is long-lived.
  void BuildSummary();

  bool has_summary() const { return summary_ok_; }

  /// Process-wide kill switch for summary builds, for A/B runs
  /// (bench_query_kernels' off-mode) and the bit-identity sweeps. Disabling
  /// does not drop summaries already built; call BuildSummary() to refresh.
  static void SetSummaryEnabled(bool enabled);
  static bool SummaryEnabled();

  /// Number of set bits. O(1) when a summary is valid, else one popcount
  /// per word.
  uint64_t Count() const;

  /// Calls fn(i) for every set bit in ascending order. The callback is a
  /// template parameter so it inlines (the former std::function signature
  /// cost an indirect call per row). With a sparse summary the walk visits
  /// nonzero words only, skipping empty 32-/1024-word runs wholesale.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    if (SparseSummarySide() != nullptr) {
      occupancy_.ForEachSet([&](uint32_t wi) {
        uint64_t w = words_[wi];
        while (w != 0) {
          fn((static_cast<size_t>(wi) << 6) +
             static_cast<size_t>(std::countr_zero(w)));
          w &= w - 1;
        }
      });
      return;
    }
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
  /// `this` when it carries a summary sparse enough that occupancy-guided
  /// iteration beats the linear word scan (under half the words nonzero),
  /// else nullptr. At 1% random bit density ~47% of words are nonzero, so
  /// the guided walk engages across the whole low-selectivity regime and
  /// disengages before dense bitmaps where it would only add overhead.
  const Bitmap* SparseSummarySide() const {
    return summary_ok_ &&
                   static_cast<size_t>(nz_words_) * 2 <= words_.size()
               ? this
               : nullptr;
  }

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
  /// Word-occupancy summary: bit w set iff words_[w] != 0, valid only when
  /// summary_ok_. popcount_ / nz_words_ are cached alongside.
  HierBitset occupancy_;
  uint64_t popcount_ = 0;
  uint32_t nz_words_ = 0;
  bool summary_ok_ = false;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_BITMAP_H_
