// Prefix-OR bitmap index over table columns: the workhorse of exact query
// evaluation and of the anatomy estimator's per-group QI matching.
//
// A row carries exactly one code per column, so the per-value bitmaps of a
// column are disjoint and partition the rows. That makes the cumulative
// form lossless: storing prefix[v] = OR(value bitmaps of codes <= v) keeps
// the same memory footprint as per-value bitmaps (one n-bit map per code),
// while any consecutive-code run [lo, hi] of a predicate becomes a single
// prefix[hi] AND-NOT prefix[lo-1] pass — O(n/64) regardless of range
// width. Point lookups recover value v's bitmap the same way (lo = hi = v).

#ifndef ANATOMY_QUERY_BITMAP_INDEX_H_
#define ANATOMY_QUERY_BITMAP_INDEX_H_

#include <vector>

#include "query/bitmap.h"
#include "query/predicate.h"
#include "table/table.h"

namespace anatomy {

class BitmapIndex {
 public:
  /// Indexes the given columns of `table`. When `row_order` is non-null it
  /// must be a permutation of [0, num_rows): bit i of every bitmap then
  /// describes row (*row_order)[i] — the group-clustered layout used by the
  /// query kernels. With a null `row_order`, bit i is row i.
  BitmapIndex(const Table& table, const std::vector<size_t>& columns,
              const std::vector<RowId>* row_order = nullptr);

  RowId num_rows() const { return num_rows_; }

  /// Rows matching `pred` on `column`, written into `out` (resized/cleared
  /// as needed): one AND-NOT pass per maximal consecutive-code run of the
  /// predicate. Out-of-domain predicate values are skipped.
  void PredicateBitmap(size_t column, const AttributePredicate& pred,
                       Bitmap& out) const;

  /// Calls fn(hi, lo) for each maximal consecutive-code run [a, b] of
  /// `pred` on `column`: the run's rows are hi AND NOT *lo, where hi is
  /// prefix[b] and lo is prefix[a - 1] (null when a = 0). PredicateBitmap
  /// ORs these; the query kernel reads them word by word instead.
  template <typename Fn>
  void ForEachRunBitmap(size_t column, const AttributePredicate& pred,
                        Fn&& fn) const {
    const std::vector<Bitmap>& prefix = prefix_[SlotFor(column)];
    pred.ForEachRun(static_cast<Code>(prefix.size()), [&](Code lo, Code hi) {
      fn(prefix[hi], lo > 0 ? &prefix[lo - 1] : nullptr);
    });
  }

 private:
  size_t SlotFor(size_t column) const;

  RowId num_rows_ = 0;
  std::vector<size_t> columns_;
  /// slot_of_column_[col] = slot index, or -1 when col is not indexed
  /// (replaces the former per-call linear scan).
  std::vector<int32_t> slot_of_column_;
  /// prefix_[slot][v] = OR of the value bitmaps of codes <= v.
  std::vector<std::vector<Bitmap>> prefix_;
};

}  // namespace anatomy

#endif  // ANATOMY_QUERY_BITMAP_INDEX_H_
