#include "anatomy/anatomized_tables.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace anatomy {

StatusOr<AnatomizedTables> AnatomizedTables::Build(const Microdata& microdata,
                                                   const Partition& partition) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(partition.ValidateCover(microdata.n()));

  AnatomizedTables out;
  const size_t d = microdata.d();
  const size_t m = partition.num_groups();

  out.group_of_row_ = partition.GroupOfRow(microdata.n());
  out.group_sizes_.resize(m);
  out.group_histograms_.resize(m);
  for (GroupId g = 0; g < m; ++g) {
    out.group_sizes_[g] = static_cast<uint32_t>(partition.groups[g].size());
    out.group_histograms_[g] =
        GroupSensitiveHistogram(microdata, partition.groups[g]);
  }

  // --- QIT schema: the QI attributes plus Group-ID (Definition 3). ---
  std::vector<AttributeDef> qit_defs;
  qit_defs.reserve(d + 1);
  for (size_t i = 0; i < d; ++i) qit_defs.push_back(microdata.qi_attribute(i));
  AttributeDef group_def = MakeNumerical(
      "Group-ID", static_cast<Code>(m), /*base=*/1);  // display 1-based
  qit_defs.push_back(group_def);
  out.qit_ = Table(std::make_shared<Schema>(std::move(qit_defs)));
  out.qit_.Reserve(microdata.n());
  std::vector<Code> row(d + 1);
  for (RowId r = 0; r < microdata.n(); ++r) {
    for (size_t i = 0; i < d; ++i) row[i] = microdata.qi_value(r, i);
    row[d] = static_cast<Code>(out.group_of_row_[r]);
    out.qit_.AppendRow(row);
  }

  // --- ST schema: (Group-ID, As, Count). ---
  std::vector<AttributeDef> st_defs;
  st_defs.push_back(group_def);
  st_defs.push_back(microdata.sensitive_attribute());
  st_defs.push_back(MakeNumerical(
      "Count", static_cast<Code>(microdata.n()) + 1));
  out.st_ = Table(std::make_shared<Schema>(std::move(st_defs)));
  std::vector<Code> record(3);
  for (GroupId g = 0; g < m; ++g) {
    for (const auto& [value, count] : out.group_histograms_[g]) {
      record[0] = static_cast<Code>(g);
      record[1] = value;
      record[2] = static_cast<Code>(count);
      out.st_.AppendRow(record);
    }
  }
  return out;
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
  const Code m_qit = qit.schema().attribute(d).domain_size;

  AnatomizedTables out;
  out.group_sizes_.assign(static_cast<size_t>(m_qit), 0);
  out.group_of_row_.resize(qit.num_rows());
  for (RowId r = 0; r < qit.num_rows(); ++r) {
    const Code g = qit.at(r, d);
    out.group_of_row_[r] = static_cast<GroupId>(g);
    ++out.group_sizes_[static_cast<size_t>(g)];
  }
  for (size_t g = 0; g < out.group_sizes_.size(); ++g) {
    if (out.group_sizes_[g] == 0) {
      return Status::InvalidArgument("group " + std::to_string(g + 1) +
                                     " has no QIT tuples");
    }
  }

  out.group_histograms_.resize(out.group_sizes_.size());
  std::vector<uint64_t> st_totals(out.group_sizes_.size(), 0);
  for (RowId r = 0; r < st.num_rows(); ++r) {
    const size_t g = static_cast<size_t>(st.at(r, 0));
    if (g >= out.group_histograms_.size()) {
      return Status::InvalidArgument("ST references unknown group");
    }
    const Code value = st.at(r, 1);
    const Code count = st.at(r, 2);
    if (count <= 0) {
      return Status::InvalidArgument("non-positive ST count");
    }
    out.group_histograms_[g].emplace_back(value,
                                          static_cast<uint32_t>(count));
    st_totals[g] += static_cast<uint64_t>(count);
  }
  for (size_t g = 0; g < out.group_sizes_.size(); ++g) {
    if (st_totals[g] != out.group_sizes_[g]) {
      return Status::InvalidArgument(
          "group " + std::to_string(g + 1) + ": ST counts sum to " +
          std::to_string(st_totals[g]) + " but the QIT has " +
          std::to_string(out.group_sizes_[g]) + " tuples");
    }
    auto& hist = out.group_histograms_[g];
    std::sort(hist.begin(), hist.end());
    for (size_t i = 1; i < hist.size(); ++i) {
      if (hist[i].first == hist[i - 1].first) {
        return Status::InvalidArgument("duplicate ST record for one value");
      }
    }
  }
  out.qit_ = std::move(qit);
  out.st_ = std::move(st);
  return out;
}

uint32_t AnatomizedTables::GroupCount(GroupId g, Code v) const {
  const auto& hist = group_histograms_[g];
  auto it = std::lower_bound(
      hist.begin(), hist.end(), v,
      [](const std::pair<Code, uint32_t>& e, Code v) { return e.first < v; });
  if (it != hist.end() && it->first == v) return it->second;
  return 0;
}

size_t AnatomizedTables::TotalStRecords() const {
  size_t total = 0;
  for (const auto& hist : group_histograms_) total += hist.size();
  return total;
}

Status CheckGroupLDiversity(
    const std::vector<std::pair<Code, uint32_t>>& histogram, uint64_t size,
    int l, GroupId g) {
  uint64_t max_count = 0;
  for (const auto& [value, count] : histogram) {
    max_count = std::max<uint64_t>(max_count, count);
  }
  if (max_count * static_cast<uint64_t>(l) > size) {
    return Status::FailedPrecondition(
        "group " + std::to_string(g + 1) + " violates " + std::to_string(l) +
        "-diversity (" + std::to_string(max_count) + "/" +
        std::to_string(size) + ")");
  }
  return Status::OK();
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
