// The published pair of tables (Definition 3): quasi-identifier table (QIT)
// and sensitive table (ST), and the group views the estimators and privacy
// analyzers read from them.

#ifndef ANATOMY_ANATOMY_ANATOMIZED_TABLES_H_
#define ANATOMY_ANATOMY_ANATOMIZED_TABLES_H_

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <utility>
#include <vector>

#include "anatomy/partition.h"
#include "common/status.h"
#include "storage/publication.h"
#include "table/table.h"

namespace anatomy {

/// Reads ST row r as an (As, Count) pair.
struct StRecord {
  const Table* st;
  std::pair<Code, uint32_t> operator()(RowId r) const {
    return {st->at(r, 1), static_cast<uint32_t>(st->at(r, 2))};
  }
};

/// One group's sensitive histogram: a view of its ST rows as (As, Count)
/// pairs, ascending in As. Valid while its AnatomizedTables lives.
using GroupHistogram =
    std::ranges::transform_view<std::ranges::iota_view<RowId, RowId>,
                                StRecord>;
inline bool operator==(const GroupHistogram& a, const GroupHistogram& b) {
  return std::ranges::equal(a, b);
}

/// The anatomized publication of a microdata table: the QIT, the ST in
/// (Group-ID, As) order, and m + 1 offsets that give each group its run of
/// ST rows. Rows of the QIT are in the same order as the microdata rows they
/// came from — publishing order carries no information because group
/// membership, not position, is the published structure (and a publisher
/// can shuffle the CSV export freely).
class AnatomizedTables {
 public:
  /// Builds QIT and ST from an l-diverse partition (Definition 3), then
  /// derives the rest exactly as FromPublishedTables does. The partition
  /// must cover the microdata exactly.
  static StatusOr<AnatomizedTables> Build(const Microdata& microdata,
                                          const Partition& partition);

  /// Reconstructs the published view from a QIT and ST that came from disk
  /// (e.g. the CSV files a publisher released) — the analyst-side entry
  /// point. Validates the publication's internal consistency:
  /// schemas (last QIT column and first ST column are Group-ID), group ids
  /// dense in [0, m), one ST record per (group, value), positive counts, and
  /// per-group ST counts summing to the group's QIT row count. Returns
  /// InvalidArgument on any mismatch. An ST not in (Group-ID, As) order is
  /// put into it with one stable sort.
  static StatusOr<AnatomizedTables> FromPublishedTables(Table qit, Table st);

  /// QIT with schema (Aqi_1, ..., Aqi_d, Group-ID). Group-ID codes are
  /// 0-based; they display 1-based like the paper via the attribute's
  /// numeric base.
  const Table& qit() const { return qit_; }

  /// ST with schema (Group-ID, As, Count), in (Group-ID, As) order.
  const Table& st() const { return st_; }

  size_t num_groups() const { return st_offsets_.size() - 1; }
  RowId num_rows() const { return qit_.num_rows(); }

  /// |g|: the sum of g's ST counts.
  uint32_t group_size(GroupId g) const;
  /// The QIT's Group-ID of row r.
  GroupId group_of_row(RowId r) const {
    return static_cast<GroupId>(qit_.at(r, qit_.num_columns() - 1));
  }

  /// Sensitive histogram of group g: its ST rows.
  GroupHistogram group_histogram(GroupId g) const;

  /// Count of sensitive value v in group g (0 if absent). The c_j(v) of the
  /// paper.
  uint32_t GroupCount(GroupId g, Code v) const;

  /// Number of ST records: distinct sensitive values summed over groups.
  size_t TotalStRecords() const { return st_.num_rows(); }

 private:
  AnatomizedTables() = default;

  Table qit_;
  Table st_;
  /// Group g's ST rows are [st_offsets_[g], st_offsets_[g + 1]).
  std::vector<RowId> st_offsets_;
};

/// The published schemas (Definition 3) of `rows` tuples in `groups`
/// groups. The QIT's is the QI attributes plus Group-ID, the ST's
/// (Group-ID, As, Count); Group-ID displays 1-based like the paper.
SchemaPtr QitSchema(std::vector<AttributeDef> qi_defs, size_t groups);
SchemaPtr StSchema(const AttributeDef& sensitive, size_t groups,
                   uint64_t rows);

/// The ST of `partition` over the microdata's sensitive attribute, in
/// (Group-ID, As) order.
Table BuildSensitiveTable(const Microdata& microdata,
                          const Partition& partition);

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
