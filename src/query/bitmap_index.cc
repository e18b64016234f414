#include "query/bitmap_index.h"

#include "common/check.h"

namespace anatomy {

BitmapIndex::BitmapIndex(const Table& table,
                         const std::vector<size_t>& columns,
                         const std::vector<RowId>* row_order)
    : num_rows_(table.num_rows()), columns_(columns) {
  if (row_order != nullptr) {
    ANATOMY_CHECK(row_order->size() == num_rows_);
  }
  slot_of_column_.assign(table.num_columns(), -1);
  prefix_.resize(columns_.size());
  for (size_t slot = 0; slot < columns_.size(); ++slot) {
    const size_t col = columns_[slot];
    ANATOMY_CHECK(col < table.num_columns());
    slot_of_column_[col] = static_cast<int32_t>(slot);
    const Code domain = table.schema().attribute(col).domain_size;
    prefix_[slot].assign(domain, Bitmap(num_rows_));
    const auto& data = table.column(col);
    for (RowId i = 0; i < num_rows_; ++i) {
      const RowId r = row_order != nullptr ? (*row_order)[i] : i;
      prefix_[slot][data[r]].Set(i);
    }
    // In-place prefix OR along the code axis: afterwards prefix_[slot][v]
    // covers every row with code <= v. Memory is unchanged relative to the
    // per-value form — same count of n-bit maps, just cumulative contents.
    for (Code v = 1; v < domain; ++v) {
      prefix_[slot][v].OrWith(prefix_[slot][v - 1]);
    }
  }
}

size_t BitmapIndex::SlotFor(size_t column) const {
  ANATOMY_CHECK_MSG(
      column < slot_of_column_.size() && slot_of_column_[column] >= 0,
      "column not indexed");
  return static_cast<size_t>(slot_of_column_[column]);
}

void BitmapIndex::PredicateBitmap(size_t column, const AttributePredicate& pred,
                                  Bitmap& out) const {
  out.Reset(num_rows_);
  ForEachRunBitmap(column, pred, [&out](const Bitmap& hi, const Bitmap* lo) {
    out.OrWithAndNot(hi, lo);
  });
}

}  // namespace anatomy
