#include "anatomy/anatomized_tables.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.h"

namespace anatomy {

StatusOr<AnatomizedTables> AnatomizedTables::Build(const Microdata& microdata,
                                                   const Partition& partition) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(partition.ValidateCover(microdata.n()));
  std::vector<AttributeDef> qi_defs;
  std::vector<std::vector<Code>> qit_columns;
  for (size_t i = 0; i < microdata.d(); ++i) {
    qi_defs.push_back(microdata.qi_attribute(i));
    qit_columns.push_back(microdata.table.column(microdata.qi_columns[i]));
  }
  std::vector<Code>& group_ids = qit_columns.emplace_back(microdata.n());
  for (GroupId g = 0; g < partition.num_groups(); ++g) {
    for (RowId r : partition.group(g)) group_ids[r] = static_cast<Code>(g);
  }
  return FromPublishedTables(
      Table(QitSchema(std::move(qi_defs), partition.num_groups()),
            std::move(qit_columns)),
      BuildSensitiveTable(microdata, partition));
}

StatusOr<AnatomizedTables> AnatomizedTables::FromPublishedTables(Table qit,
                                                                 Table st) {
  if (qit.num_columns() < 2) {
    return Status::InvalidArgument("QIT must have QI columns plus Group-ID");
  }
  if (st.num_columns() != 3) {
    return Status::InvalidArgument("ST must be (Group-ID, As, Count)");
  }
  const size_t d = qit.num_columns() - 1;
  if (qit.schema().attribute(d).name != "Group-ID" ||
      st.schema().attribute(0).name != "Group-ID") {
    return Status::InvalidArgument("Group-ID columns not where expected");
  }
  const size_t m = static_cast<size_t>(qit.schema().attribute(d).domain_size);
  std::vector<uint64_t> qit_sizes(m, 0);
  for (const Code g : qit.column(d)) ++qit_sizes[static_cast<size_t>(g)];

  // Build and the external pipeline write the ST in (Group-ID, As) order;
  // any other order is sorted into it once.
  const auto before = [&st](RowId a, RowId b) {
    return std::pair(st.at(a, 0), st.at(a, 1)) <
           std::pair(st.at(b, 0), st.at(b, 1));
  };
  const auto st_rows = std::views::iota(RowId{0}, st.num_rows());
  if (!std::ranges::is_sorted(st_rows, before)) {
    std::vector<RowId> order(st_rows.begin(), st_rows.end());
    std::ranges::stable_sort(order, before);
    st = st.SelectRows(order);
  }

  AnatomizedTables out;
  out.st_offsets_.assign(m + 1, 0);
  std::vector<uint64_t> st_totals(m, 0);
  for (RowId r = 0; r < st.num_rows(); ++r) {
    const size_t g = static_cast<size_t>(st.at(r, 0));
    if (g >= m) return Status::InvalidArgument("ST references unknown group");
    if (st.at(r, 2) <= 0) {
      return Status::InvalidArgument("non-positive ST count");
    }
    if (r > 0 && !before(r - 1, r)) {
      return Status::InvalidArgument("duplicate ST record for one value");
    }
    ++out.st_offsets_[g + 1];
    st_totals[g] += static_cast<uint64_t>(st.at(r, 2));
  }
  for (size_t g = 0; g < m; ++g) {
    if (qit_sizes[g] == 0) {
      return Status::InvalidArgument("group " + std::to_string(g + 1) +
                                     " has no QIT tuples");
    }
    if (st_totals[g] != qit_sizes[g]) {
      return Status::InvalidArgument(
          "group " + std::to_string(g + 1) + ": ST counts sum to " +
          std::to_string(st_totals[g]) + " but the QIT has " +
          std::to_string(qit_sizes[g]) + " tuples");
    }
    out.st_offsets_[g + 1] += out.st_offsets_[g];
  }
  out.qit_ = std::move(qit);
  out.st_ = std::move(st);
  return out;
}

uint32_t AnatomizedTables::group_size(GroupId g) const {
  const std::vector<Code>& counts = st_.column(2);
  return static_cast<uint32_t>(
      std::accumulate(counts.begin() + st_offsets_[g],
                      counts.begin() + st_offsets_[g + 1], uint64_t{0}));
}

GroupHistogram AnatomizedTables::group_histogram(GroupId g) const {
  return GroupHistogram(std::views::iota(st_offsets_[g], st_offsets_[g + 1]),
                        StRecord{&st_});
}

uint32_t AnatomizedTables::GroupCount(GroupId g, Code v) const {
  const GroupHistogram hist = group_histogram(g);
  const auto it = std::ranges::lower_bound(
      hist, v, {}, [](const std::pair<Code, uint32_t>& e) { return e.first; });
  return it != hist.end() && (*it).first == v ? (*it).second : 0;
}

SchemaPtr QitSchema(std::vector<AttributeDef> qi_defs, size_t groups) {
  qi_defs.push_back(
      MakeNumerical("Group-ID", static_cast<Code>(groups), /*base=*/1));
  return std::make_shared<Schema>(std::move(qi_defs));
}

SchemaPtr StSchema(const AttributeDef& sensitive, size_t groups,
                   uint64_t rows) {
  return std::make_shared<Schema>(std::vector<AttributeDef>{
      MakeNumerical("Group-ID", static_cast<Code>(groups), /*base=*/1),
      sensitive, MakeNumerical("Count", static_cast<Code>(rows) + 1)});
}

Table BuildSensitiveTable(const Microdata& microdata,
                          const Partition& partition) {
  // One record per distinct value of each group, so at most n records.
  std::vector<std::vector<Code>> columns(3);
  for (std::vector<Code>& column : columns) column.reserve(microdata.n());
  const std::vector<Code>& sensitive =
      microdata.table.column(microdata.sensitive_column);
  std::vector<Code> values;
  for (GroupId g = 0; g < partition.num_groups(); ++g) {
    values.clear();
    for (RowId r : partition.group(g)) values.push_back(sensitive[r]);
    std::sort(values.begin(), values.end());
    for (size_t i = 0; i < values.size(); ++i) {
      if (i == 0 || values[i] != values[i - 1]) {
        columns[0].push_back(static_cast<Code>(g));
        columns[1].push_back(values[i]);
        columns[2].push_back(0);
      }
      ++columns[2].back();
    }
  }
  return Table(StSchema(microdata.sensitive_attribute(),
                        partition.num_groups(), microdata.n()),
               std::move(columns));
}

Status VerifyLDiversity(const AnatomizedTables& tables, int l) {
  if (l < 1) return Status::InvalidArgument("l must be >= 1");
  for (GroupId g = 0; g < tables.num_groups(); ++g) {
    ANATOMY_RETURN_IF_ERROR(CheckGroupLDiversity(tables.group_histogram(g),
                                                 tables.group_size(g), l, g));
  }
  return Status::OK();
}

Status AppendPublishedFile(Disk* disk, const PublishedFileMeta& meta,
                           const RetryPolicy& retry, size_t gid_field,
                           GroupId gid_offset, Table& table) {
  ANATOMY_CHECK(gid_field < table.num_columns());
  if (meta.fields != table.num_columns()) {
    return Status::FailedPrecondition(
        "published file has " + std::to_string(meta.fields) +
        " fields, the table " + std::to_string(table.num_columns()));
  }
  PublishedRecordReader reader(disk, meta, retry);
  // The reader has checked that the count fits the file's pages.
  ANATOMY_RETURN_IF_ERROR(reader.status());
  table.Reserve(table.num_rows() + static_cast<RowId>(meta.records));
  std::vector<Code> row(meta.fields);
  while (reader.Next()) {
    std::copy(reader.record().begin(), reader.record().end(), row.begin());
    row[gid_field] += static_cast<Code>(gid_offset);
    table.AppendRow(row);
  }
  return reader.status();
}

}  // namespace anatomy
