// Columnar in-memory table of attribute codes, plus the Microdata view the
// privacy algorithms operate on (QI attributes + one sensitive attribute).

#ifndef ANATOMY_TABLE_TABLE_H_
#define ANATOMY_TABLE_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "table/schema.h"

namespace anatomy {

/// Row-count type. Tables up to ~2B rows.
using RowId = uint32_t;

/// Columnar table: one contiguous code vector per attribute. Column-major
/// layout makes the per-attribute scans of Mondrian, the bitmap index build,
/// and statistics cheap.
class Table {
 public:
  Table() = default;
  explicit Table(SchemaPtr schema);
  /// A table over `columns`, one code vector per attribute, all of one
  /// length. Codes are CHECKed like AppendRow's.
  Table(SchemaPtr schema, std::vector<std::vector<Code>> columns);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  RowId num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends one row; `row` must have one code per attribute, each in domain.
  /// Codes are CHECKed (appending out-of-domain data is a programming error;
  /// untrusted input is validated by the CSV reader before reaching here).
  void AppendRow(std::span<const Code> row);

  /// Reserves capacity for `n` rows.
  void Reserve(RowId n);

  Code at(RowId row, size_t col) const { return columns_[col][row]; }
  void set(RowId row, size_t col, Code v) { columns_[col][row] = v; }

  const std::vector<Code>& column(size_t col) const { return columns_[col]; }

  /// Copies a row into `out` (resized to num_columns()).
  void GetRow(RowId row, std::vector<Code>& out) const;

  /// New table with only the rows in `rows` (in that order).
  Table SelectRows(std::span<const RowId> rows) const;

  /// New table with only the columns in `cols` (in that order), sharing no
  /// storage; schema is projected accordingly.
  Table ProjectColumns(const std::vector<size_t>& cols) const;

  /// Uniform random sample of `n` rows without replacement; Status error if
  /// n exceeds num_rows().
  StatusOr<Table> SampleRows(RowId n, Rng& rng) const;

  /// Renders the first `max_rows` rows with attribute labels, for examples.
  std::string ToDisplayString(RowId max_rows = 20) const;

 private:
  SchemaPtr schema_;
  std::vector<std::vector<Code>> columns_;
  RowId num_rows_ = 0;
};

/// A microdata table in the paper's sense: d QI attributes followed by the
/// designation of one categorical sensitive attribute A^s. Both index lists
/// refer to columns of `table`.
struct Microdata {
  Table table;
  /// Column indices of the quasi-identifier attributes Aqi_1..Aqi_d.
  std::vector<size_t> qi_columns;
  /// Column index of the sensitive attribute.
  size_t sensitive_column = 0;

  size_t d() const { return qi_columns.size(); }
  RowId n() const { return table.num_rows(); }

  const AttributeDef& qi_attribute(size_t i) const {
    return table.schema().attribute(qi_columns[i]);
  }
  const AttributeDef& sensitive_attribute() const {
    return table.schema().attribute(sensitive_column);
  }

  Code qi_value(RowId row, size_t i) const {
    return table.at(row, qi_columns[i]);
  }
  Code sensitive_value(RowId row) const {
    return table.at(row, sensitive_column);
  }

  /// Validates the column designations against the schema: indices in range,
  /// no duplicates, sensitive attribute not among the QIs.
  Status Validate() const;
};

}  // namespace anatomy

#endif  // ANATOMY_TABLE_TABLE_H_
