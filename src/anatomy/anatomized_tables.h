// The published pair of tables (Definition 3): quasi-identifier table (QIT)
// and sensitive table (ST), plus the compact in-memory model the estimators
// and privacy analyzers work from.

#ifndef ANATOMY_ANATOMY_ANATOMIZED_TABLES_H_
#define ANATOMY_ANATOMY_ANATOMIZED_TABLES_H_

#include <cstdint>
#include <vector>

#include "anatomy/partition.h"
#include "common/status.h"
#include "storage/publication.h"
#include "table/table.h"

namespace anatomy {

/// The anatomized publication of a microdata table. Rows of the QIT are in
/// the same order as the microdata rows they came from — publishing order
/// carries no information because group membership, not position, is the
/// published structure (and a publisher can shuffle the CSV export freely).
class AnatomizedTables {
 public:
  /// Builds QIT and ST from an l-diverse partition (Definition 3). The
  /// partition must cover the microdata exactly.
  static StatusOr<AnatomizedTables> Build(const Microdata& microdata,
                                          const Partition& partition);

  /// Reconstructs the published view from a QIT and ST that came from disk
  /// (e.g. the CSV files a publisher released) — the analyst-side entry
  /// point. Validates the publication's internal consistency:
  /// schemas (last QIT column and first ST column are Group-ID), group ids
  /// dense in [0, m), and per-group ST counts summing to the group's QIT
  /// row count. Returns InvalidArgument on any mismatch.
  static StatusOr<AnatomizedTables> FromPublishedTables(Table qit, Table st);

  /// QIT with schema (Aqi_1, ..., Aqi_d, Group-ID). Group-ID codes are
  /// 0-based; they display 1-based like the paper via the attribute's
  /// numeric base.
  const Table& qit() const { return qit_; }

  /// ST with schema (Group-ID, As, Count).
  const Table& st() const { return st_; }

  size_t num_groups() const { return group_sizes_.size(); }
  RowId num_rows() const { return static_cast<RowId>(group_of_row_.size()); }

  uint32_t group_size(GroupId g) const { return group_sizes_[g]; }
  GroupId group_of_row(RowId r) const { return group_of_row_[r]; }

  /// Sensitive histogram of group g: (sensitive code, count), sorted by code.
  const std::vector<std::pair<Code, uint32_t>>& group_histogram(
      GroupId g) const {
    return group_histograms_[g];
  }

  /// Count of sensitive value v in group g (0 if absent). The c_j(v) of the
  /// paper.
  uint32_t GroupCount(GroupId g, Code v) const;

  /// Number of distinct sensitive values across all groups' histograms.
  size_t TotalStRecords() const;

 private:
  AnatomizedTables() = default;

  Table qit_;
  Table st_;
  std::vector<uint32_t> group_sizes_;
  std::vector<GroupId> group_of_row_;
  std::vector<std::vector<std::pair<Code, uint32_t>>> group_histograms_;
};

/// Inequality 1 for group g: no sensitive value makes up more than 1/l of
/// the group's `size` tuples. FailedPrecondition naming the group (1-based)
/// otherwise. The one l-diversity check: VerifyLDiversity, the bundle
/// writer and reader, and privacy/ldiversity's verifiers all use it.
Status CheckGroupLDiversity(
    const std::vector<std::pair<Code, uint32_t>>& histogram, uint64_t size,
    int l, GroupId g);

/// CheckGroupLDiversity over every group; InvalidArgument when l < 1.
Status VerifyLDiversity(const AnatomizedTables& tables, int l);

/// Appends every record of one published file (a QIT or an ST on disk) to
/// `table` as a row, streaming page by page, with `gid_offset` added to
/// field `gid_field` (the record's group id). Returns FailedPrecondition
/// when the file's record width differs from the table's, and the reader's
/// status (kDataLoss for corrupt pages or counts) otherwise.
Status AppendPublishedFile(Disk* disk, const PublishedFileMeta& meta,
                           const RetryPolicy& retry, size_t gid_field,
                           GroupId gid_offset, Table& table);

}  // namespace anatomy

#endif  // ANATOMY_ANATOMY_ANATOMIZED_TABLES_H_
