#include "table/table.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace anatomy {

Table::Table(SchemaPtr schema) : schema_(std::move(schema)) {
  ANATOMY_CHECK(schema_ != nullptr);
  columns_.resize(schema_->num_attributes());
}

Table::Table(SchemaPtr schema, std::vector<std::vector<Code>> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  ANATOMY_CHECK(schema_ != nullptr &&
                columns_.size() == schema_->num_attributes());
  num_rows_ = columns_.empty() ? 0 : static_cast<RowId>(columns_[0].size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    ANATOMY_CHECK(columns_[c].size() == num_rows_);
    for (const Code v : columns_[c]) {
      ANATOMY_CHECK_MSG(schema_->CodeInDomain(c, v),
                        schema_->attribute(c).name.c_str());
    }
  }
}

void Table::AppendRow(std::span<const Code> row) {
  ANATOMY_CHECK(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    ANATOMY_CHECK_MSG(schema_->CodeInDomain(c, row[c]),
                      schema_->attribute(c).name.c_str());
    columns_[c].push_back(row[c]);
  }
  ++num_rows_;
}

void Table::Reserve(RowId n) {
  for (auto& col : columns_) col.reserve(n);
}

void Table::GetRow(RowId row, std::vector<Code>& out) const {
  out.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out[c] = columns_[c][row];
}

Table Table::SelectRows(std::span<const RowId> rows) const {
  Table out(schema_);
  out.Reserve(static_cast<RowId>(rows.size()));
  for (size_t c = 0; c < columns_.size(); ++c) {
    auto& dst = out.columns_[c];
    const auto& src = columns_[c];
    for (RowId r : rows) {
      ANATOMY_CHECK(r < num_rows_);
      dst.push_back(src[r]);
    }
  }
  out.num_rows_ = static_cast<RowId>(rows.size());
  return out;
}

Table Table::ProjectColumns(const std::vector<size_t>& cols) const {
  auto schema = std::make_shared<Schema>(schema_->Project(cols));
  Table out(std::move(schema));
  for (size_t i = 0; i < cols.size(); ++i) {
    out.columns_[i] = columns_[cols[i]];
  }
  out.num_rows_ = num_rows_;
  return out;
}

StatusOr<Table> Table::SampleRows(RowId n, Rng& rng) const {
  if (n > num_rows_) {
    return Status::InvalidArgument("sample size exceeds table cardinality");
  }
  std::vector<RowId> rows = rng.SampleWithoutReplacement(num_rows_, n);
  return SelectRows(rows);
}

std::string Table::ToDisplayString(RowId max_rows) const {
  std::ostringstream os;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) os << "  ";
    os << schema_->attribute(c).name;
  }
  os << "\n";
  const RowId limit = std::min<RowId>(max_rows, num_rows_);
  for (RowId r = 0; r < limit; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) os << "  ";
      os << schema_->attribute(c).FormatCode(columns_[c][r]);
    }
    os << "\n";
  }
  if (limit < num_rows_) {
    os << "... (" << (num_rows_ - limit) << " more rows)\n";
  }
  return os.str();
}

Status Microdata::Validate() const {
  const size_t ncols = table.schema().num_attributes();
  if (qi_columns.empty()) {
    return Status::InvalidArgument("microdata must have at least one QI attribute");
  }
  std::vector<bool> seen(ncols, false);
  for (size_t c : qi_columns) {
    if (c >= ncols) {
      return Status::InvalidArgument("QI column index out of range");
    }
    if (seen[c]) return Status::InvalidArgument("duplicate QI column");
    seen[c] = true;
  }
  if (sensitive_column >= ncols) {
    return Status::InvalidArgument("sensitive column index out of range");
  }
  if (seen[sensitive_column]) {
    return Status::InvalidArgument(
        "sensitive attribute cannot also be a quasi-identifier");
  }
  return Status::OK();
}

}  // namespace anatomy
