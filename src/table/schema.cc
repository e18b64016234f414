#include "table/schema.h"

#include "common/check.h"
#include "common/string_util.h"

namespace anatomy {

std::string AttributeDef::FormatCode(Code code) const {
  if (!labels.empty()) {
    ANATOMY_CHECK(code >= 0 && static_cast<size_t>(code) < labels.size());
    return labels[code];
  }
  if (kind == AttributeKind::kNumerical) {
    return std::to_string(numeric_base + static_cast<int64_t>(code) * numeric_step);
  }
  return std::to_string(code);
}

Schema::Schema(std::vector<AttributeDef> attributes)
    : attributes_(std::move(attributes)) {
  for (const auto& a : attributes_) {
    ANATOMY_CHECK_MSG(a.domain_size > 0, a.name.c_str());
    if (!a.labels.empty()) {
      ANATOMY_CHECK_MSG(
          a.labels.size() == static_cast<size_t>(a.domain_size),
          a.name.c_str());
    }
  }
}

StatusOr<size_t> Schema::FindAttribute(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

Schema Schema::Project(const std::vector<size_t>& indices) const {
  std::vector<AttributeDef> defs;
  defs.reserve(indices.size());
  for (size_t i : indices) {
    ANATOMY_CHECK(i < attributes_.size());
    defs.push_back(attributes_[i]);
  }
  return Schema(std::move(defs));
}

AttributeDef MakeCategorical(std::string name, Code domain_size) {
  AttributeDef def;
  def.name = std::move(name);
  def.kind = AttributeKind::kCategorical;
  def.domain_size = domain_size;
  return def;
}

AttributeDef MakeLabeled(std::string name, std::vector<std::string> labels) {
  AttributeDef def;
  def.name = std::move(name);
  def.kind = AttributeKind::kCategorical;
  def.domain_size = static_cast<Code>(labels.size());
  def.labels = std::move(labels);
  return def;
}

AttributeDef MakeNumerical(std::string name, Code domain_size, int64_t base,
                           int64_t step) {
  AttributeDef def;
  def.name = std::move(name);
  def.kind = AttributeKind::kNumerical;
  def.domain_size = domain_size;
  def.numeric_base = base;
  def.numeric_step = step;
  return def;
}

IntegerDecode DecodeInteger(const AttributeDef& attr, std::string_view text,
                            Code* code) {
  const StatusOr<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok()) return IntegerDecode::kNotAnInteger;
  __int128 value = *parsed;
  if (attr.kind == AttributeKind::kNumerical) {
    const __int128 offset = value - attr.numeric_base;
    if (attr.numeric_step == 0 || offset % attr.numeric_step != 0) {
      return IntegerDecode::kOffGrid;
    }
    value = offset / attr.numeric_step;
  }
  if (value < 0 || value >= attr.domain_size) {
    return IntegerDecode::kOutOfDomain;
  }
  *code = static_cast<Code>(value);
  return IntegerDecode::kOk;
}

}  // namespace anatomy
