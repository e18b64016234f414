#include "generalization/generalized_table.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"

namespace anatomy {

double GeneralizedGroup::Volume() const {
  double v = 1.0;
  for (const CodeInterval& e : extents) v *= static_cast<double>(e.length());
  return v;
}

StatusOr<GeneralizedTable> GeneralizedTable::Build(
    const Microdata& microdata, const Partition& partition,
    const TaxonomySet& taxonomies) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(partition.ValidateCover(microdata.n()));
  const size_t d = microdata.d();
  if (taxonomies.size() < d) {
    return Status::InvalidArgument(
        "need one taxonomy per QI attribute; got " +
        std::to_string(taxonomies.size()) + " for d = " + std::to_string(d));
  }

  GeneralizedTable out;
  out.d_ = d;
  out.num_rows_ = microdata.n();
  out.group_of_row_ = partition.GroupOfRow(microdata.n());
  out.groups_.resize(partition.num_groups());

  for (GroupId g = 0; g < partition.num_groups(); ++g) {
    const std::span<const RowId> rows = partition.group(g);
    GeneralizedGroup& group = out.groups_[g];
    group.size = static_cast<uint32_t>(rows.size());
    group.extents.resize(d);
    for (size_t i = 0; i < d; ++i) {
      Code lo = microdata.qi_value(rows[0], i);
      Code hi = lo;
      for (RowId r : rows) {
        const Code v = microdata.qi_value(r, i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      group.extents[i] = taxonomies.at(i).Snap(CodeInterval{lo, hi});
    }
    group.histogram = GroupSensitiveHistogram(microdata, rows);
  }
  return out;
}

StatusOr<GeneralizedTable> GeneralizedTable::FromCells(
    const Microdata& microdata, const Partition& partition,
    const std::vector<std::vector<CodeInterval>>& cells) {
  ANATOMY_RETURN_IF_ERROR(microdata.Validate());
  ANATOMY_RETURN_IF_ERROR(partition.ValidateCover(microdata.n()));
  if (cells.size() != partition.num_groups()) {
    return Status::InvalidArgument("one cell per group required");
  }
  const size_t d = microdata.d();

  GeneralizedTable out;
  out.d_ = d;
  out.num_rows_ = microdata.n();
  out.group_of_row_ = partition.GroupOfRow(microdata.n());
  out.groups_.resize(partition.num_groups());

  for (GroupId g = 0; g < partition.num_groups(); ++g) {
    if (cells[g].size() != d) {
      return Status::InvalidArgument("cell arity mismatch on group " +
                                     std::to_string(g + 1));
    }
    GeneralizedGroup& group = out.groups_[g];
    group.extents = cells[g];
    group.size = static_cast<uint32_t>(partition.group(g).size());
    for (RowId r : partition.group(g)) {
      for (size_t i = 0; i < d; ++i) {
        if (!cells[g][i].Contains(microdata.qi_value(r, i))) {
          return Status::InvalidArgument(
              "group " + std::to_string(g + 1) +
              " has a tuple outside its declared cell");
        }
      }
    }
    group.histogram = GroupSensitiveHistogram(microdata, partition.group(g));
  }
  return out;
}

StatusOr<GeneralizedTable> GeneralizedTable::FromPublishedRows(
    const std::vector<std::vector<CodeInterval>>& row_cells,
    const std::vector<Code>& sensitive_values) {
  if (row_cells.empty()) {
    return Status::InvalidArgument("publication has no rows");
  }
  if (row_cells.size() != sensitive_values.size()) {
    return Status::InvalidArgument("cell/sensitive row count mismatch");
  }
  const size_t d = row_cells[0].size();
  if (d == 0) return Status::InvalidArgument("rows have no QI cells");

  GeneralizedTable out;
  out.d_ = d;
  out.num_rows_ = static_cast<RowId>(row_cells.size());
  out.group_of_row_.resize(row_cells.size());

  // Group identical cell vectors. Cells are keyed by their flattened bounds.
  std::map<std::vector<Code>, GroupId> index;
  std::vector<std::vector<Code>> group_sensitive;
  std::vector<Code> key(2 * d);
  for (size_t r = 0; r < row_cells.size(); ++r) {
    if (row_cells[r].size() != d) {
      return Status::InvalidArgument("row " + std::to_string(r + 1) +
                                     " has a different cell arity");
    }
    for (size_t i = 0; i < d; ++i) {
      if (row_cells[r][i].empty()) {
        return Status::InvalidArgument("row " + std::to_string(r + 1) +
                                       " has an empty interval");
      }
      key[2 * i] = row_cells[r][i].lo;
      key[2 * i + 1] = row_cells[r][i].hi;
    }
    auto [it, inserted] =
        index.emplace(key, static_cast<GroupId>(out.groups_.size()));
    if (inserted) {
      GeneralizedGroup group;
      group.extents = row_cells[r];
      out.groups_.push_back(std::move(group));
      group_sensitive.emplace_back();
    }
    const GroupId g = it->second;
    out.group_of_row_[r] = g;
    ++out.groups_[g].size;
    group_sensitive[g].push_back(sensitive_values[r]);
  }
  for (GroupId g = 0; g < out.groups_.size(); ++g) {
    auto& values = group_sensitive[g];
    std::sort(values.begin(), values.end());
    auto& hist = out.groups_[g].histogram;
    for (size_t i = 0; i < values.size();) {
      size_t j = i;
      while (j < values.size() && values[j] == values[i]) ++j;
      hist.emplace_back(values[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  }
  return out;
}

std::string GeneralizedTable::ToDisplayString(const Microdata& microdata,
                                              RowId max_rows) const {
  std::ostringstream os;
  const size_t d = d_;
  for (size_t i = 0; i < d; ++i) {
    os << microdata.qi_attribute(i).name << "  ";
  }
  os << microdata.sensitive_attribute().name << "\n";
  const RowId limit = std::min<RowId>(max_rows, num_rows_);
  for (RowId r = 0; r < limit; ++r) {
    const GeneralizedGroup& group = groups_[group_of_row_[r]];
    for (size_t i = 0; i < d; ++i) {
      const CodeInterval& e = group.extents[i];
      const AttributeDef& attr = microdata.qi_attribute(i);
      if (e.lo == e.hi) {
        os << attr.FormatCode(e.lo);
      } else {
        os << "[" << attr.FormatCode(e.lo) << ", " << attr.FormatCode(e.hi)
           << "]";
      }
      os << "  ";
    }
    os << microdata.sensitive_attribute().FormatCode(
              microdata.sensitive_value(r))
       << "\n";
  }
  if (limit < num_rows_) os << "... (" << (num_rows_ - limit) << " more)\n";
  return os.str();
}

}  // namespace anatomy
