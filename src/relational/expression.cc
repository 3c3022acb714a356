#include "relational/expression.h"

#include <charconv>
#include <cmath>

#include "common/macros.h"
#include "persist/codec.h"

namespace piye {
namespace relational {

ExprPtr Expression::Literal(Value v) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->op_ = Op::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expression::ColumnRef(std::string name) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->op_ = Op::kColumn;
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expression::Binary(Op op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expression::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->op_ = Op::kNot;
  e->lhs_ = std::move(operand);
  return e;
}

ExprPtr Expression::In(ExprPtr lhs, std::vector<Value> values) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->op_ = Op::kIn;
  e->lhs_ = std::move(lhs);
  e->in_values_ = std::move(values);
  return e;
}

ExprPtr Expression::And(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return Binary(Op::kAnd, std::move(a), std::move(b));
}

namespace {

Result<Value> Arith(Expression::Op op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    if (op == Expression::Op::kAdd && a.is_string() && b.is_string()) {
      return Value::Str(a.AsString() + b.AsString());
    }
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  const bool both_int = a.is_int() && b.is_int() && op != Expression::Op::kDiv;
  const double x = a.AsDouble(), y = b.AsDouble();
  double r = 0;
  switch (op) {
    case Expression::Op::kAdd:
      r = x + y;
      break;
    case Expression::Op::kSub:
      r = x - y;
      break;
    case Expression::Op::kMul:
      r = x * y;
      break;
    case Expression::Op::kDiv:
      if (y == 0.0) return Value::Null();
      r = x / y;
      break;
    default:
      return Status::Internal("not an arithmetic op");
  }
  if (both_int) return Value::Int(static_cast<int64_t>(r));
  return Value::Real(r);
}

}  // namespace

bool SqlLikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Expression::Evaluate(const Row& row, const Schema& schema) const {
  switch (op_) {
    case Op::kLiteral:
      return literal_;
    case Op::kColumn: {
      PIYE_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column_));
      return row[idx];
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      PIYE_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
      PIYE_ASSIGN_OR_RETURN(Value b, rhs_->Evaluate(row, schema));
      if (a.is_null() || b.is_null()) return Value::Boolean(false);
      const int c = a.Compare(b);
      bool r = false;
      switch (op_) {
        case Op::kEq:
          r = c == 0;
          break;
        case Op::kNe:
          r = c != 0;
          break;
        case Op::kLt:
          r = c < 0;
          break;
        case Op::kLe:
          r = c <= 0;
          break;
        case Op::kGt:
          r = c > 0;
          break;
        case Op::kGe:
          r = c >= 0;
          break;
        default:
          break;
      }
      return Value::Boolean(r);
    }
    case Op::kAnd: {
      PIYE_ASSIGN_OR_RETURN(bool a, lhs_->EvaluatesTrue(row, schema));
      if (!a) return Value::Boolean(false);
      PIYE_ASSIGN_OR_RETURN(bool b, rhs_->EvaluatesTrue(row, schema));
      return Value::Boolean(b);
    }
    case Op::kOr: {
      PIYE_ASSIGN_OR_RETURN(bool a, lhs_->EvaluatesTrue(row, schema));
      if (a) return Value::Boolean(true);
      PIYE_ASSIGN_OR_RETURN(bool b, rhs_->EvaluatesTrue(row, schema));
      return Value::Boolean(b);
    }
    case Op::kNot: {
      PIYE_ASSIGN_OR_RETURN(bool a, lhs_->EvaluatesTrue(row, schema));
      return Value::Boolean(!a);
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      PIYE_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
      PIYE_ASSIGN_OR_RETURN(Value b, rhs_->Evaluate(row, schema));
      return Arith(op_, a, b);
    }
    case Op::kLike: {
      PIYE_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
      PIYE_ASSIGN_OR_RETURN(Value b, rhs_->Evaluate(row, schema));
      if (a.is_null() || b.is_null()) return Value::Boolean(false);
      if (!a.is_string() || !b.is_string()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      return Value::Boolean(SqlLikeMatch(a.AsString(), b.AsString()));
    }
    case Op::kIn: {
      PIYE_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
      if (a.is_null()) return Value::Boolean(false);
      for (const Value& v : in_values_) {
        if (a.SqlEquals(v)) return Value::Boolean(true);
      }
      return Value::Boolean(false);
    }
  }
  return Status::Internal("unhandled expression op");
}

Result<bool> Expression::EvaluatesTrue(const Row& row, const Schema& schema) const {
  PIYE_ASSIGN_OR_RETURN(Value v, Evaluate(row, schema));
  if (v.is_null()) return false;
  if (v.is_bool()) return v.AsBool();
  if (v.is_numeric()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

void Expression::CollectColumns(std::set<std::string>* out) const {
  if (op_ == Op::kColumn) out->insert(column_);
  if (lhs_) lhs_->CollectColumns(out);
  if (rhs_) rhs_->CollectColumns(out);
}

size_t Expression::NodeCount() const {
  size_t n = 1;
  if (lhs_) n += lhs_->NodeCount();
  if (rhs_) n += rhs_->NodeCount();
  return n;
}

namespace {

/// A literal as text the parser reads back as the same Value.
std::string SqlLiteral(const Value& v) {
  if (v.is_string()) {
    std::string out = "'";
    for (const char c : v.AsString()) {
      if (c == '\'') out += '\'';
      out += c;
    }
    return out + "'";
  }
  if (v.is_double() && std::isfinite(v.AsDouble())) {
    // Fixed notation, because the lexer reads no exponent; the longest
    // finite double (a subnormal) needs ~330 characters.
    char buf[400];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), v.AsDouble(), std::chars_format::fixed);
    if (ec == std::errc()) {
      std::string out(buf, ptr);
      if (out.find('.') == std::string::npos) out += ".0";
      return out;
    }
  }
  return v.ToString();
}

/// Type tags of a literal in the canonical key.
enum class LiteralTag : uint8_t { kNull, kInt, kDouble, kString, kBool };

void AppendLiteralKey(const Value& v, persist::Encoder* enc) {
  if (v.is_null()) {
    enc->PutU8(static_cast<uint8_t>(LiteralTag::kNull));
  } else if (v.is_int()) {
    enc->PutU8(static_cast<uint8_t>(LiteralTag::kInt));
    enc->PutU64(static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    enc->PutU8(static_cast<uint8_t>(LiteralTag::kDouble));
    enc->PutDouble(v.AsDouble());
  } else if (v.is_string()) {
    enc->PutU8(static_cast<uint8_t>(LiteralTag::kString));
    enc->PutString(v.AsString());
  } else {
    enc->PutU8(static_cast<uint8_t>(LiteralTag::kBool));
    enc->PutU8(v.AsBool() ? 1 : 0);
  }
}

Result<Value> DecodeLiteralKey(persist::Decoder* dec) {
  PIYE_ASSIGN_OR_RETURN(const uint8_t tag, dec->GetU8());
  switch (static_cast<LiteralTag>(tag)) {
    case LiteralTag::kNull:
      return Value::Null();
    case LiteralTag::kInt: {
      PIYE_ASSIGN_OR_RETURN(const uint64_t bits, dec->GetU64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case LiteralTag::kDouble: {
      PIYE_ASSIGN_OR_RETURN(const double v, dec->GetDouble());
      return Value::Real(v);
    }
    case LiteralTag::kString: {
      PIYE_ASSIGN_OR_RETURN(std::string s, dec->GetString());
      return Value::Str(std::move(s));
    }
    case LiteralTag::kBool: {
      PIYE_ASSIGN_OR_RETURN(const uint8_t b, dec->GetU8());
      if (b > 1) return Status::ParseError("expression key: bool byte " + std::to_string(b));
      return Value::Boolean(b == 1);
    }
  }
  return Status::ParseError("expression key: unknown literal tag " + std::to_string(tag));
}

/// One node and its operands; `budget` is the number of nodes still
/// allowed, so the recursion is never deeper than kMaxExpressionNodes.
Result<ExprPtr> DecodeNode(persist::Decoder* dec, size_t* budget) {
  if (*budget == 0) {
    return Status::ParseError("expression key: more than " +
                              std::to_string(kMaxExpressionNodes) + " nodes");
  }
  --*budget;
  PIYE_ASSIGN_OR_RETURN(const uint8_t raw, dec->GetU8());
  if (raw > static_cast<uint8_t>(Expression::Op::kIn)) {
    return Status::ParseError("expression key: unknown op code " + std::to_string(raw));
  }
  const auto op = static_cast<Expression::Op>(raw);
  switch (op) {
    case Expression::Op::kLiteral: {
      PIYE_ASSIGN_OR_RETURN(Value v, DecodeLiteralKey(dec));
      return Expression::Literal(std::move(v));
    }
    case Expression::Op::kColumn: {
      PIYE_ASSIGN_OR_RETURN(std::string name, dec->GetString());
      return Expression::ColumnRef(std::move(name));
    }
    case Expression::Op::kNot: {
      PIYE_ASSIGN_OR_RETURN(ExprPtr operand, DecodeNode(dec, budget));
      return Expression::Not(std::move(operand));
    }
    case Expression::Op::kIn: {
      PIYE_ASSIGN_OR_RETURN(ExprPtr lhs, DecodeNode(dec, budget));
      PIYE_ASSIGN_OR_RETURN(const uint64_t count, dec->GetU64());
      // Each value takes at least its tag byte.
      if (count > dec->remaining()) {
        return Status::ParseError("expression key: IN list of " + std::to_string(count) +
                                  " values exceeds the bytes left");
      }
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        PIYE_ASSIGN_OR_RETURN(Value v, DecodeLiteralKey(dec));
        values.push_back(std::move(v));
      }
      return Expression::In(std::move(lhs), std::move(values));
    }
    default: {
      PIYE_ASSIGN_OR_RETURN(ExprPtr lhs, DecodeNode(dec, budget));
      PIYE_ASSIGN_OR_RETURN(ExprPtr rhs, DecodeNode(dec, budget));
      return Expression::Binary(op, std::move(lhs), std::move(rhs));
    }
  }
}

}  // namespace

Result<ExprPtr> Expression::DecodeCanonicalKey(persist::Decoder* dec) {
  size_t budget = kMaxExpressionNodes;
  return DecodeNode(dec, &budget);
}

void Expression::AppendCanonicalKey(persist::Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(op_));
  switch (op_) {
    case Op::kLiteral:
      AppendLiteralKey(literal_, enc);
      return;
    case Op::kColumn:
      enc->PutString(column_);
      return;
    case Op::kNot:
      lhs_->AppendCanonicalKey(enc);
      return;
    case Op::kIn:
      lhs_->AppendCanonicalKey(enc);
      enc->PutU64(in_values_.size());
      for (const Value& v : in_values_) AppendLiteralKey(v, enc);
      return;
    default:
      lhs_->AppendCanonicalKey(enc);
      rhs_->AppendCanonicalKey(enc);
      return;
  }
}

std::string Expression::ToString() const {
  switch (op_) {
    case Op::kLiteral:
      return SqlLiteral(literal_);
    case Op::kColumn:
      return column_;
    case Op::kNot:
      return "(NOT " + lhs_->ToString() + ")";
    case Op::kIn: {
      std::string out = "(" + lhs_->ToString() + " IN (";
      for (size_t i = 0; i < in_values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += SqlLiteral(in_values_[i]);
      }
      return out + "))";
    }
    default: {
      const char* sym = "?";
      switch (op_) {
        case Op::kEq:
          sym = "=";
          break;
        case Op::kNe:
          sym = "<>";
          break;
        case Op::kLt:
          sym = "<";
          break;
        case Op::kLe:
          sym = "<=";
          break;
        case Op::kGt:
          sym = ">";
          break;
        case Op::kGe:
          sym = ">=";
          break;
        case Op::kAnd:
          sym = "AND";
          break;
        case Op::kOr:
          sym = "OR";
          break;
        case Op::kAdd:
          sym = "+";
          break;
        case Op::kSub:
          sym = "-";
          break;
        case Op::kMul:
          sym = "*";
          break;
        case Op::kDiv:
          sym = "/";
          break;
        case Op::kLike:
          sym = "LIKE";
          break;
        default:
          break;
      }
      return "(" + lhs_->ToString() + " " + sym + " " + rhs_->ToString() + ")";
    }
  }
}

}  // namespace relational
}  // namespace piye
