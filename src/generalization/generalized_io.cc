#include "generalization/generalized_io.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace anatomy {

namespace {

/// Decodes one cell-boundary token ("23", "M", "11000") to a code.
StatusOr<Code> DecodeBoundary(const AttributeDef& attr, const std::string& text,
                              size_t line) {
  for (size_t i = 0; i < attr.labels.size(); ++i) {
    if (attr.labels[i] == text) return static_cast<Code>(i);
  }
  Code code = 0;
  switch (DecodeInteger(attr, text, &code)) {
    case IntegerDecode::kOk:
      return code;
    case IntegerDecode::kNotAnInteger:
      return Status::InvalidArgument("line " + std::to_string(line) +
                                     ": cannot parse '" + text + "' for " +
                                     attr.name);
    case IntegerDecode::kOffGrid:
      return Status::InvalidArgument("line " + std::to_string(line) +
                                     ": value " + text +
                                     " off the grid of " + attr.name);
    case IntegerDecode::kOutOfDomain:
      break;
  }
  return Status::OutOfRange("line " + std::to_string(line) + ": value " +
                            text + " outside the domain of " + attr.name);
}

/// Decodes a cell field: "value" or "lo..hi".
StatusOr<CodeInterval> DecodeCell(const AttributeDef& attr,
                                  const std::string& field, size_t line) {
  const auto dots = field.find("..");
  if (dots == std::string::npos) {
    ANATOMY_ASSIGN_OR_RETURN(Code code, DecodeBoundary(attr, field, line));
    return CodeInterval{code, code};
  }
  ANATOMY_ASSIGN_OR_RETURN(Code lo,
                           DecodeBoundary(attr, field.substr(0, dots), line));
  ANATOMY_ASSIGN_OR_RETURN(Code hi,
                           DecodeBoundary(attr, field.substr(dots + 2), line));
  if (hi < lo) {
    return Status::InvalidArgument("line " + std::to_string(line) +
                                   ": inverted interval '" + field + "'");
  }
  return CodeInterval{lo, hi};
}

}  // namespace

Status WriteGeneralizedCsv(const GeneralizedTable& table,
                           const Microdata& microdata, std::ostream& os) {
  if (table.num_rows() != microdata.n() || table.d() != microdata.d()) {
    return Status::InvalidArgument(
        "generalized table does not match the microdata");
  }
  for (size_t i = 0; i < microdata.d(); ++i) {
    os << microdata.qi_attribute(i).name << ',';
  }
  os << microdata.sensitive_attribute().name << '\n';
  for (RowId r = 0; r < table.num_rows(); ++r) {
    const GeneralizedGroup& group = table.group(table.group_of_row(r));
    for (size_t i = 0; i < table.d(); ++i) {
      const AttributeDef& attr = microdata.qi_attribute(i);
      const CodeInterval& cell = group.extents[i];
      if (cell.lo == cell.hi) {
        os << attr.FormatCode(cell.lo);
      } else {
        os << attr.FormatCode(cell.lo) << ".." << attr.FormatCode(cell.hi);
      }
      os << ',';
    }
    os << microdata.sensitive_attribute().FormatCode(
              microdata.sensitive_value(r))
       << '\n';
  }
  if (!os) return Status::Internal("generalized CSV write failed");
  return Status::OK();
}

Status WriteGeneralizedCsvFile(const GeneralizedTable& table,
                               const Microdata& microdata,
                               const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::NotFound("cannot open '" + path + "' for writing");
  return WriteGeneralizedCsv(table, microdata, os);
}

StatusOr<LoadedGeneralized> ReadGeneralizedCsv(
    const std::vector<AttributeDef>& qi_attributes,
    const AttributeDef& sensitive_attribute, std::istream& is) {
  const size_t d = qi_attributes.size();
  if (d == 0) return Status::InvalidArgument("no QI attributes");

  std::vector<std::vector<CodeInterval>> row_cells;
  std::vector<Code> sensitive_values;
  std::string line;
  size_t line_no = 0;
  bool header = true;
  while (std::getline(is, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    const std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != d + 1) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected " + std::to_string(d + 1) +
                                     " fields");
    }
    std::vector<CodeInterval> cells(d);
    for (size_t i = 0; i < d; ++i) {
      ANATOMY_ASSIGN_OR_RETURN(
          cells[i],
          DecodeCell(qi_attributes[i], std::string(Trim(fields[i])), line_no));
    }
    ANATOMY_ASSIGN_OR_RETURN(
        Code sensitive,
        DecodeBoundary(sensitive_attribute, std::string(Trim(fields[d])),
                       line_no));
    row_cells.push_back(std::move(cells));
    sensitive_values.push_back(sensitive);
  }
  LoadedGeneralized loaded;
  ANATOMY_ASSIGN_OR_RETURN(
      loaded.table,
      GeneralizedTable::FromPublishedRows(row_cells, sensitive_values));
  return loaded;
}

StatusOr<LoadedGeneralized> ReadGeneralizedCsvFile(
    const std::vector<AttributeDef>& qi_attributes,
    const AttributeDef& sensitive_attribute, const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  return ReadGeneralizedCsv(qi_attributes, sensitive_attribute, is);
}

}  // namespace anatomy
