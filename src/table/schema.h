// Relational schema for microdata tables.
//
// Following the paper (Section 3), every attribute is discrete: numerical
// attributes are dense integer codes with an affine mapping to their real
// values (e.g. Age code 0 -> 15 years), and categorical attributes are codes
// with optional string labels. A total ordering on codes is assumed for all
// attributes (paper footnote 2), which is what multidimensional
// generalization partitions on.

#ifndef ANATOMY_TABLE_SCHEMA_H_
#define ANATOMY_TABLE_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace anatomy {

/// Attribute code type. All cell values are codes in [0, domain_size).
using Code = int32_t;

enum class AttributeKind {
  kNumerical,    // codes map affinely to numbers (Age, Education years)
  kCategorical,  // codes are category ids with labels (Sex, Country, Disease)
};

/// Static description of one attribute.
struct AttributeDef {
  std::string name;
  AttributeKind kind = AttributeKind::kCategorical;
  /// Number of distinct codes; the domain is [0, domain_size).
  Code domain_size = 0;
  /// For numerical attributes: real value = numeric_base + code * numeric_step.
  int64_t numeric_base = 0;
  int64_t numeric_step = 1;
  /// Optional labels, one per code (categorical attributes). May be empty, in
  /// which case codes print as integers.
  std::vector<std::string> labels;

  /// Human-readable form of a code ("M", "flu", or "23").
  std::string FormatCode(Code code) const;
};

/// An immutable ordered collection of attributes. Shared by tables derived
/// from the same microdata (projections, samples, anatomized outputs).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeDef> attributes);

  size_t num_attributes() const { return attributes_.size(); }
  const AttributeDef& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  /// Index of the attribute named `name`, or NotFound.
  StatusOr<size_t> FindAttribute(const std::string& name) const;

  /// New schema keeping only `indices`, in order.
  Schema Project(const std::vector<size_t>& indices) const;

  /// Validates a code for attribute `i`.
  bool CodeInDomain(size_t i, Code code) const {
    return code >= 0 && code < attributes_[i].domain_size;
  }

 private:
  std::vector<AttributeDef> attributes_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Convenience builder for an unlabeled categorical attribute.
AttributeDef MakeCategorical(std::string name, Code domain_size);

/// Convenience builder for a labeled categorical attribute;
/// domain size = labels.size().
AttributeDef MakeLabeled(std::string name, std::vector<std::string> labels);

/// Convenience builder for a numerical attribute with `domain_size` codes
/// mapping to base, base+step, ...
AttributeDef MakeNumerical(std::string name, Code domain_size,
                           int64_t base = 0, int64_t step = 1);

/// How DecodeInteger maps integer text onto an attribute's codes.
enum class IntegerDecode { kOk, kNotAnInteger, kOffGrid, kOutOfDomain };

/// Decodes integer `text` (whole-string int64, as ParseInt64 reads it) to
/// *code: for a categorical attribute the integer is the code, for a
/// numerical one it is the value numeric_base + code * numeric_step. The
/// arithmetic runs in 128 bits, so no int64 text overflows or traps. The
/// one decoder behind CSV cells, query values and generalized boundaries;
/// each caller words its own errors.
IntegerDecode DecodeInteger(const AttributeDef& attr, std::string_view text,
                            Code* code);

}  // namespace anatomy

#endif  // ANATOMY_TABLE_SCHEMA_H_
