#include "table/schema_io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace anatomy {

namespace {

std::string EscapeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (c == '\\' || c == ',') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Splits a label list on unescaped commas and unescapes the pieces.
std::vector<std::string> SplitLabels(const std::string& text) {
  std::vector<std::string> labels;
  std::string current;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      current.push_back(c);
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == ',') {
      labels.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  labels.push_back(current);
  return labels;
}

}  // namespace

std::string SerializeSchema(const Schema& schema) {
  std::ostringstream os;
  os << "# anatomy schema v1: name|kind|domain[|...]\n";
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    os << attr.name << '|';
    if (attr.kind == AttributeKind::kNumerical) {
      os << "numerical|" << attr.domain_size << '|' << attr.numeric_base << '|'
         << attr.numeric_step;
    } else {
      os << "categorical|" << attr.domain_size;
      if (!attr.labels.empty()) {
        os << '|';
        for (size_t l = 0; l < attr.labels.size(); ++l) {
          if (l > 0) os << ',';
          os << EscapeLabel(attr.labels[l]);
        }
      }
    }
    os << '\n';
  }
  return os.str();
}

Status WriteSchemaFile(const Schema& schema, const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::NotFound("cannot open '" + path + "' for writing");
  os << SerializeSchema(schema);
  if (!os) return Status::Internal("schema write failed");
  return Status::OK();
}

StatusOr<SchemaPtr> ParseSchema(const std::string& text) {
  std::vector<AttributeDef> defs;
  std::istringstream is(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const std::vector<std::string> fields = Split(trimmed, '|');
    if (fields.size() < 3) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected name|kind|domain");
    }
    const std::string& name = fields[0];
    if (name.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": empty attribute name");
    }
    const std::string where = "line " + std::to_string(line_no) + ": ";
    constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
    constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
    ANATOMY_ASSIGN_OR_RETURN(
        const int64_t domain,
        ParseInt64InRange(fields[2], 1, int64_t{1} << 30, where + "domain"));
    const std::string kind = ToLower(fields[1]);
    if (kind == "numerical") {
      if (fields.size() != 5) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": numerical needs name|numerical|domain|base|step");
      }
      ANATOMY_ASSIGN_OR_RETURN(
          const int64_t base,
          ParseInt64InRange(fields[3], kInt64Min, kInt64Max, where + "base"));
      ANATOMY_ASSIGN_OR_RETURN(
          const int64_t step,
          ParseInt64InRange(fields[4], kInt64Min, kInt64Max, where + "step"));
      if (step == 0) {
        return Status::InvalidArgument(where + "step must be non-zero");
      }
      // Every value base + code * step must be an int64 (the estimators
      // compute measure values exactly in that type).
      const __int128 last = static_cast<__int128>(base) +
                            static_cast<__int128>(domain - 1) * step;
      if (last < kInt64Min || last > kInt64Max) {
        return Status::OutOfRange(where + "values overflow a 64-bit integer");
      }
      defs.push_back(MakeNumerical(name, static_cast<Code>(domain), base, step));
    } else if (kind == "categorical") {
      if (fields.size() == 3) {
        defs.push_back(MakeCategorical(name, static_cast<Code>(domain)));
      } else if (fields.size() == 4) {
        std::vector<std::string> labels = SplitLabels(fields[3]);
        if (labels.size() != static_cast<size_t>(domain)) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": " +
              std::to_string(labels.size()) + " labels for domain " +
              std::to_string(domain));
        }
        defs.push_back(MakeLabeled(name, std::move(labels)));
      } else {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": categorical needs name|categorical|domain[|labels]");
      }
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown kind '" + fields[1] + "'");
    }
  }
  if (defs.empty()) {
    return Status::InvalidArgument("schema has no attributes");
  }
  return SchemaPtr(std::make_shared<const Schema>(std::move(defs)));
}

StatusOr<SchemaPtr> ReadSchemaFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return ParseSchema(buffer.str());
}

}  // namespace anatomy
