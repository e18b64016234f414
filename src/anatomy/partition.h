// Partitions of a microdata table into QI-groups (Definition 1) and the
// l-diversity predicate on them (Definition 2).

#ifndef ANATOMY_ANATOMY_PARTITION_H_
#define ANATOMY_ANATOMY_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace anatomy {

/// Group index within a partition (0-based internally; the paper's Group-ID
/// is this + 1 when displayed).
using GroupId = uint32_t;

/// A partition of rows into disjoint QI-groups covering the whole table,
/// held flat: one row-id array, and m + 1 offsets into it.
class Partition {
 public:
  Partition() = default;

  /// Adopts a flat layout: group g is rows[offsets[g], offsets[g + 1]).
  /// CHECKs that offsets start at 0, never decrease and end at rows.size().
  Partition(std::vector<RowId> rows, std::vector<RowId> offsets);

  size_t num_groups() const { return offsets_.size() - 1; }

  /// The rows of group g, in the order the producer placed them.
  std::span<const RowId> group(GroupId g) const {
    return std::span<const RowId>(rows_).subspan(
        offsets_[g], offsets_[g + 1] - offsets_[g]);
  }

  /// Appends a group holding `rows`.
  void AddGroup(std::span<const RowId> rows);

  /// Total number of rows across groups.
  RowId TotalRows() const { return static_cast<RowId>(rows_.size()); }

  /// Inverse mapping: group of each row in [0, n). CHECKs that rows are in
  /// range and appear exactly once.
  std::vector<GroupId> GroupOfRow(RowId n) const;

  /// Verifies Definition 1 against a table of `n` rows: every row in exactly
  /// one group, no empty groups.
  Status ValidateCover(RowId n) const;

  /// Verifies Definition 2 (CheckGroupLDiversity on every group).
  Status ValidateLDiverse(const Microdata& microdata, int l) const;

  /// The largest l for which this partition is l-diverse (0 if some group is
  /// empty): the minimum over groups of GroupDiversity.
  int MaxDiversity(const Microdata& microdata) const;

  bool operator==(const Partition&) const = default;

 private:
  std::vector<RowId> rows_;
  std::vector<RowId> offsets_ = {0};
};

/// Figure 3's partition: group g holds the l rows drawn for it, drawn[g * l,
/// (g + 1) * l), then the residue rows assigned to it (Lines 9-12), in the
/// order of `residues`, whose pairs are (group, row).
Partition PartitionWithResidues(
    std::span<const RowId> drawn, size_t l,
    std::span<const std::pair<GroupId, RowId>> residues);

/// The (value, count) histogram of `values`, sorted by value.
std::vector<std::pair<Code, uint32_t>> ValueHistogram(
    std::vector<Code> values);

/// ValueHistogram of the sensitive values of a group's rows.
std::vector<std::pair<Code, uint32_t>> GroupSensitiveHistogram(
    const Microdata& microdata, std::span<const RowId> group);

/// Inequality 1 for a group of `size` tuples with this (value, count)
/// histogram: c(v) / size <= 1/l for every v holds exactly for l <= size /
/// max_v c(v), so that quotient is the largest l the group satisfies
/// (unbounded for an empty group). The one l-diversity inequality:
/// CheckGroupLDiversity and Partition::MaxDiversity use it.
template <typename Histogram>
uint64_t GroupDiversity(const Histogram& histogram, uint64_t size) {
  uint64_t max_count = 0;
  for (const auto& [value, count] : histogram) {
    max_count = std::max<uint64_t>(max_count, count);
  }
  return max_count == 0 ? UINT64_MAX : size / max_count;
}

/// FailedPrecondition naming group g (1-based) unless the group is
/// l-diverse. Every l-diversity check goes through it: the partition's,
/// VerifyLDiversity (the bundle writer and reader) and privacy/ldiversity's
/// verifiers.
template <typename Histogram>
Status CheckGroupLDiversity(const Histogram& histogram, uint64_t size, int l,
                            GroupId g) {
  const uint64_t diversity = GroupDiversity(histogram, size);
  if (diversity >= static_cast<uint64_t>(l)) return Status::OK();
  return Status::FailedPrecondition(
      "group " + std::to_string(g + 1) + " of " + std::to_string(size) +
      " tuples is only " + std::to_string(diversity) + "-diverse, not " +
      std::to_string(l) + "-diverse");
}

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_PARTITION_H_
