#include "table/csv.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/string_util.h"

namespace anatomy {

Status WriteCsv(const Table& table, std::ostream& os,
                const CsvOptions& options) {
  const Schema& schema = table.schema();
  if (options.header) {
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) os << options.delimiter;
      os << schema.attribute(c).name;
    }
    os << "\n";
  }
  for (RowId r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) os << options.delimiter;
      os << schema.attribute(c).FormatCode(table.at(r, c));
    }
    os << "\n";
  }
  if (!os) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  // Write-to-temp + rename so a crash or write failure never leaves a
  // truncated file at `path`: readers see either the old content or the
  // complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) return Status::NotFound("cannot open '" + tmp + "' for writing");
    const Status status = WriteCsv(table, os, options);
    if (!status.ok()) {
      os.close();
      std::remove(tmp.c_str());
      return status;
    }
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      return Status::Internal("flush of '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename of '" + tmp + "' to '" + path +
                            "' failed");
  }
  return Status::OK();
}

namespace {

/// Per-attribute decoder from CSV field text to a code.
class FieldDecoder {
 public:
  explicit FieldDecoder(const AttributeDef& def) : def_(&def) {
    for (size_t i = 0; i < def.labels.size(); ++i) {
      label_to_code_[def.labels[i]] = static_cast<Code>(i);
    }
  }

  StatusOr<Code> Decode(std::string_view field, size_t line) const {
    std::string text(Trim(field));
    if (!label_to_code_.empty()) {
      auto it = label_to_code_.find(text);
      if (it != label_to_code_.end()) return it->second;
      // Fall through: allow numeric codes even for labeled attributes.
    }
    Code code = 0;
    switch (DecodeInteger(*def_, text, &code)) {
      case IntegerDecode::kOk:
        return code;
      case IntegerDecode::kNotAnInteger:
        return Status::InvalidArgument("line " + std::to_string(line) +
                                       ": cannot parse '" + text + "' for " +
                                       def_->name);
      case IntegerDecode::kOffGrid:
        return Status::InvalidArgument("line " + std::to_string(line) +
                                       ": value " + text +
                                       " not on the grid of " + def_->name);
      case IntegerDecode::kOutOfDomain:
        break;
    }
    return Status::OutOfRange("line " + std::to_string(line) + ": value " +
                              text + " outside the domain of " + def_->name);
  }

 private:
  const AttributeDef* def_;
  std::map<std::string, Code> label_to_code_;
};

}  // namespace

StatusOr<Table> ReadCsv(SchemaPtr schema, std::istream& is,
                        const CsvOptions& options) {
  Table table(schema);
  std::vector<FieldDecoder> decoders;
  decoders.reserve(schema->num_attributes());
  for (size_t c = 0; c < schema->num_attributes(); ++c) {
    decoders.emplace_back(schema->attribute(c));
  }

  std::string line;
  size_t line_no = 0;
  bool skip_header = options.header;
  std::vector<Code> row(schema->num_attributes());
  while (std::getline(is, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    std::vector<std::string> fields = Split(line, options.delimiter);
    if (fields.size() != schema->num_attributes()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(schema->num_attributes()) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      ANATOMY_ASSIGN_OR_RETURN(row[c], decoders[c].Decode(fields[c], line_no));
    }
    table.AppendRow(row);
  }
  return table;
}

StatusOr<Table> ReadCsvFile(SchemaPtr schema, const std::string& path,
                            const CsvOptions& options) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  return ReadCsv(std::move(schema), is, options);
}

}  // namespace anatomy
