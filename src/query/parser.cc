#include "query/parser.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace anatomy {

QuerySchema QuerySchema::FromMicrodata(const Microdata& microdata) {
  QuerySchema schema;
  for (size_t i = 0; i < microdata.d(); ++i) {
    schema.qi_attributes.push_back(microdata.qi_attribute(i));
  }
  schema.sensitive_attribute = microdata.sensitive_attribute();
  return schema;
}

QuerySchema QuerySchema::FromPublication(const AnatomizedTables& tables) {
  QuerySchema schema;
  const size_t d = tables.qit().num_columns() - 1;
  for (size_t i = 0; i < d; ++i) {
    schema.qi_attributes.push_back(tables.qit().schema().attribute(i));
  }
  schema.sensitive_attribute = tables.st().schema().attribute(1);
  return schema;
}

namespace {

struct Token {
  enum Kind { kWord, kLParen, kRParen, kComma, kEquals, kEnd } kind;
  std::string text;
};

/// Splits the query text into words and punctuation tokens.
StatusOr<std::vector<Token>> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  std::string word;
  auto flush = [&]() {
    if (!word.empty()) {
      tokens.push_back({Token::kWord, word});
      word.clear();
    }
  };
  for (char c : text) {
    switch (c) {
      case '(':
        flush();
        tokens.push_back({Token::kLParen, "("});
        break;
      case ')':
        flush();
        tokens.push_back({Token::kRParen, ")"});
        break;
      case ',':
        flush();
        tokens.push_back({Token::kComma, ","});
        break;
      case '=':
        flush();
        tokens.push_back({Token::kEquals, "="});
        break;
      default:
        if (std::isspace(static_cast<unsigned char>(c))) {
          flush();
        } else {
          word.push_back(c);
        }
    }
  }
  flush();
  tokens.push_back({Token::kEnd, ""});
  return tokens;
}

bool IsKeyword(const Token& token, const char* keyword) {
  return token.kind == Token::kWord && ToLower(token.text) == keyword;
}

/// Resolves one textual value to a code of `attr`.
StatusOr<Code> ResolveValue(const AttributeDef& attr, const std::string& text) {
  for (size_t i = 0; i < attr.labels.size(); ++i) {
    if (attr.labels[i] == text) return static_cast<Code>(i);
  }
  Code code = 0;
  switch (DecodeInteger(attr, text, &code)) {
    case IntegerDecode::kOk:
      return code;
    case IntegerDecode::kNotAnInteger:
      return Status::InvalidArgument("'" + text + "' is neither a label nor a "
                                     "number for " + attr.name);
    case IntegerDecode::kOffGrid:
      return Status::InvalidArgument("value " + text + " is off the grid of " +
                                     attr.name);
    case IntegerDecode::kOutOfDomain:
      break;
  }
  return Status::OutOfRange("value " + text + " outside the domain of " +
                            attr.name);
}

/// Codes of `attr` whose mapped real value lies in [lo_text, hi_text].
StatusOr<std::vector<Code>> ResolveRange(const AttributeDef& attr,
                                         const std::string& lo_text,
                                         const std::string& hi_text) {
  auto parse_real = [&](const std::string& text) -> StatusOr<int64_t> {
    StatusOr<int64_t> v = ParseInt64(text);
    if (!v.ok()) {
      return Status::InvalidArgument("BETWEEN bound '" + text +
                                     "' is not a number");
    }
    return v;
  };
  int64_t lo;
  int64_t hi;
  if (attr.kind == AttributeKind::kNumerical) {
    ANATOMY_ASSIGN_OR_RETURN(lo, parse_real(lo_text));
    ANATOMY_ASSIGN_OR_RETURN(hi, parse_real(hi_text));
  } else {
    // Categorical: bounds are labels or codes, ordered by code (footnote 2's
    // total ordering).
    ANATOMY_ASSIGN_OR_RETURN(Code lo_code, ResolveValue(attr, lo_text));
    ANATOMY_ASSIGN_OR_RETURN(Code hi_code, ResolveValue(attr, hi_text));
    lo = lo_code;
    hi = hi_code;
  }
  std::vector<Code> values;
  for (Code c = 0; c < attr.domain_size; ++c) {
    const int64_t real =
        attr.kind == AttributeKind::kNumerical
            ? attr.numeric_base + static_cast<int64_t>(c) * attr.numeric_step
            : c;
    if (real >= lo && real <= hi) values.push_back(c);
  }
  if (values.empty()) {
    return Status::InvalidArgument("BETWEEN " + lo_text + " AND " + hi_text +
                                   " matches nothing in " + attr.name);
  }
  return values;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const QuerySchema& schema)
      : tokens_(std::move(tokens)), schema_(&schema) {}

  StatusOr<CountQuery> Parse() {
    if (!IsKeyword(Peek(), "count")) {
      return Status::InvalidArgument("query must start with COUNT");
    }
    Advance();
    CountQuery query;
    bool saw_sensitive = false;
    if (IsKeyword(Peek(), "where")) {
      Advance();
      for (;;) {
        ANATOMY_RETURN_IF_ERROR(ParseConjunct(query, saw_sensitive));
        if (!IsKeyword(Peek(), "and")) break;
        Advance();
      }
    }
    if (Peek().kind != Token::kEnd) {
      return Status::InvalidArgument("trailing input at '" + Peek().text + "'");
    }
    if (!saw_sensitive) {
      // No sensitive constraint: match every sensitive value.
      std::vector<Code> all(schema_->sensitive_attribute.domain_size);
      for (Code v = 0; v < schema_->sensitive_attribute.domain_size; ++v) {
        all[v] = v;
      }
      query.sensitive_predicate = AttributePredicate(0, std::move(all));
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  StatusOr<const AttributeDef*> LookupAttribute(const std::string& name,
                                                size_t* qi_index,
                                                bool* is_sensitive) const {
    for (size_t i = 0; i < schema_->qi_attributes.size(); ++i) {
      if (schema_->qi_attributes[i].name == name) {
        *qi_index = i;
        *is_sensitive = false;
        return &schema_->qi_attributes[i];
      }
    }
    if (schema_->sensitive_attribute.name == name) {
      *is_sensitive = true;
      return &schema_->sensitive_attribute;
    }
    return Status::NotFound("unknown attribute '" + name + "'");
  }

  Status ParseConjunct(CountQuery& query, bool& saw_sensitive) {
    if (Peek().kind != Token::kWord) {
      return Status::InvalidArgument("expected an attribute name, got '" +
                                     Peek().text + "'");
    }
    const std::string name = Peek().text;
    Advance();
    size_t qi_index = 0;
    bool is_sensitive = false;
    ANATOMY_ASSIGN_OR_RETURN(const AttributeDef* attr,
                             LookupAttribute(name, &qi_index, &is_sensitive));

    std::vector<Code> values;
    if (Peek().kind == Token::kEquals) {
      Advance();
      if (Peek().kind != Token::kWord) {
        return Status::InvalidArgument("expected a value after '='");
      }
      ANATOMY_ASSIGN_OR_RETURN(Code code, ResolveValue(*attr, Peek().text));
      values.push_back(code);
      Advance();
    } else if (IsKeyword(Peek(), "in")) {
      Advance();
      if (Peek().kind != Token::kLParen) {
        return Status::InvalidArgument("expected '(' after IN");
      }
      Advance();
      for (;;) {
        if (Peek().kind != Token::kWord) {
          return Status::InvalidArgument("expected a value in the IN list");
        }
        ANATOMY_ASSIGN_OR_RETURN(Code code, ResolveValue(*attr, Peek().text));
        values.push_back(code);
        Advance();
        if (Peek().kind == Token::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind != Token::kRParen) {
        return Status::InvalidArgument("expected ')' closing the IN list");
      }
      Advance();
    } else if (IsKeyword(Peek(), "between")) {
      Advance();
      if (Peek().kind != Token::kWord) {
        return Status::InvalidArgument("expected a BETWEEN lower bound");
      }
      const std::string lo = Peek().text;
      Advance();
      if (!IsKeyword(Peek(), "and")) {
        return Status::InvalidArgument("expected AND inside BETWEEN");
      }
      Advance();
      if (Peek().kind != Token::kWord) {
        return Status::InvalidArgument("expected a BETWEEN upper bound");
      }
      const std::string hi = Peek().text;
      Advance();
      ANATOMY_ASSIGN_OR_RETURN(values, ResolveRange(*attr, lo, hi));
    } else {
      return Status::InvalidArgument("expected =, IN, or BETWEEN after '" +
                                     name + "'");
    }

    if (is_sensitive) {
      if (saw_sensitive) {
        return Status::InvalidArgument(
            "the sensitive attribute may be constrained only once");
      }
      saw_sensitive = true;
      query.sensitive_predicate = AttributePredicate(0, std::move(values));
    } else {
      for (const AttributePredicate& pred : query.qi_predicates) {
        if (pred.qi_index() == qi_index) {
          return Status::InvalidArgument("attribute '" + name +
                                         "' constrained twice");
        }
      }
      query.qi_predicates.push_back(
          AttributePredicate(qi_index, std::move(values)));
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  const QuerySchema* schema_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<CountQuery> ParseCountQuery(const std::string& text,
                                     const QuerySchema& schema) {
  ANATOMY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), schema);
  return parser.Parse();
}

}  // namespace anatomy
