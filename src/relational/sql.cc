#include "relational/sql.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/macros.h"
#include "common/strings.h"

namespace piye {
namespace relational {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kStdDev:
      return "STDDEV";
  }
  return "?";
}

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  switch (kind) {
    case Kind::kColumn:
      return column;
    case Kind::kAggregate:
      return std::string(AggFuncToString(func)) + "(" + (column.empty() ? "*" : column) +
             ")";
  }
  return "?";
}

bool SelectStatement::HasAggregates() const {
  for (const auto& item : items) {
    if (item.kind == SelectItem::Kind::kAggregate) return true;
  }
  return false;
}

namespace {

struct Token {
  enum class Type { kIdent, kNumber, kString, kSymbol, kEnd };
  Type type = Type::kEnd;
  std::string text;  // identifiers upper-cased only when compared as keywords
};

class Lexer {
 public:
  explicit Lexer(std::string_view in) : in_(in) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    for (;;) {
      SkipWhitespace();
      if (pos_ >= in_.size()) break;
      const char c = in_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && pos_ + 1 < in_.size() &&
                  std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
        out.push_back(LexNumber());
      } else if (c == '\'') {
        PIYE_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
      } else {
        PIYE_ASSIGN_OR_RETURN(Token t, LexSymbol());
        out.push_back(std::move(t));
      }
    }
    out.push_back(Token{Token::Type::kEnd, ""});
    return out;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  Token LexIdent() {
    const size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '_' ||
            in_[pos_] == '.')) {
      ++pos_;
    }
    return Token{Token::Type::kIdent, std::string(in_.substr(start, pos_ - start))};
  }

  Token LexNumber() {
    const size_t start = pos_;
    bool seen_dot = false;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            (in_[pos_] == '.' && !seen_dot))) {
      if (in_[pos_] == '.') seen_dot = true;
      ++pos_;
    }
    return Token{Token::Type::kNumber, std::string(in_.substr(start, pos_ - start))};
  }

  Result<Token> LexString() {
    ++pos_;  // opening quote
    std::string text;
    while (pos_ < in_.size()) {
      if (in_[pos_] == '\'') {
        if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '\'') {
          text += '\'';  // escaped quote
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{Token::Type::kString, std::move(text)};
      }
      text += in_[pos_++];
    }
    return Status::ParseError("unterminated string literal");
  }

  Result<Token> LexSymbol() {
    static const char* kTwoChar[] = {"<=", ">=", "<>", "!="};
    for (const char* s : kTwoChar) {
      if (in_.substr(pos_, 2) == s) {
        pos_ += 2;
        return Token{Token::Type::kSymbol, s};
      }
    }
    const char c = in_[pos_];
    if (std::string("(),*=<>+-/%").find(c) == std::string::npos) {
      return Status::ParseError(strings::Format("unexpected character '%c'", c));
    }
    ++pos_;
    return Token{Token::Type::kSymbol, std::string(1, c)};
  }

  std::string_view in_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseSelect() {
    SelectStatement stmt;
    if (!MatchKeyword("SELECT")) return Error("expected SELECT");
    PIYE_RETURN_NOT_OK(ParseSelectList(&stmt));
    if (!MatchKeyword("FROM")) return Error("expected FROM");
    PIYE_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (MatchKeyword("WHERE")) {
      PIYE_ASSIGN_OR_RETURN(stmt.where, ParseExpr(0));
    }
    if (MatchKeyword("GROUP")) {
      if (!MatchKeyword("BY")) return Error("expected BY after GROUP");
      do {
        PIYE_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.group_by.push_back(std::move(col));
      } while (MatchSymbol(","));
    }
    if (Peek().type != Token::Type::kEnd) {
      return Error("unexpected trailing tokens near '" + Peek().text + "'");
    }
    return stmt;
  }

  Result<ExprPtr> ParseBareExpression() {
    PIYE_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(0));
    if (Peek().type != Token::Type::kEnd) {
      return Error("unexpected trailing tokens near '" + Peek().text + "'");
    }
    return e;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("SQL parse error: " + what);
  }

  /// Counts `n` more tree nodes against kMaxExpressionNodes, before they
  /// are built or their operands parsed.
  Status CountNodes(size_t n) {
    nodes_ += n;
    if (nodes_ > kMaxExpressionNodes) {
      return Error("expression has more than " + std::to_string(kMaxExpressionNodes) +
                   " nodes");
    }
    return Status::OK();
  }

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().type == Token::Type::kIdent &&
        strings::ToLower(Peek().text) == strings::ToLower(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  bool MatchSymbol(const std::string& sym) {
    if (Peek().type == Token::Type::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Result<std::string> ExpectIdent() {
    if (Peek().type != Token::Type::kIdent) {
      return Error("expected identifier, got '" + Peek().text + "'");
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  static bool IsAggName(const std::string& name, AggFunc* out) {
    const std::string up = strings::ToLower(name);
    if (up == "count") *out = AggFunc::kCount;
    else if (up == "sum") *out = AggFunc::kSum;
    else if (up == "avg") *out = AggFunc::kAvg;
    else if (up == "min") *out = AggFunc::kMin;
    else if (up == "max") *out = AggFunc::kMax;
    else if (up == "stddev") *out = AggFunc::kStdDev;
    else return false;
    return true;
  }

  Status ParseSelectList(SelectStatement* stmt) {
    do {
      SelectItem item;
      if (Peek().type != Token::Type::kIdent) {
        return Error("expected column or aggregate in select list");
      }
      AggFunc func;
      if (IsAggName(Peek().text, &func) && Peek(1).type == Token::Type::kSymbol &&
          Peek(1).text == "(") {
        Advance();  // func name
        Advance();  // (
        std::string col;
        if (MatchSymbol("*")) {
          if (func != AggFunc::kCount) {
            return Error("only COUNT accepts '*'");
          }
        } else {
          auto col_r = ExpectIdent();
          if (!col_r.ok()) return col_r.status();
          col = *col_r;
        }
        if (!MatchSymbol(")")) return Error("expected ')'");
        item = SelectItem::Agg(func, std::move(col));
      } else {
        auto col_r = ExpectIdent();
        if (!col_r.ok()) return col_r.status();
        item = SelectItem::Col(*col_r);
      }
      if (MatchKeyword("AS")) {
        auto alias_r = ExpectIdent();
        if (!alias_r.ok()) return alias_r.status();
        item.alias = *alias_r;
      }
      stmt->items.push_back(std::move(item));
    } while (MatchSymbol(","));
    return Status::OK();
  }

  // Expression grammar, loosest first: OR, AND, prefix NOT, comparisons
  // (=, <>, !=, <, <=, >, >=, LIKE, IN), + and -, * and /, primary. The
  // binary levels are one loop over kBinaryOps (precedence climbing), so a
  // parenthesis level costs two frames: ParsePrimary and ParseExpr.
  static constexpr int kNotPrec = 3;
  static constexpr int kComparePrec = 4;

  struct BinaryOp {
    Token::Type type;       ///< kIdent for keywords (matched lower-case)
    std::string_view text;
    Expression::Op op;
    int prec;  ///< binds tighter when larger; comparisons do not associate
  };
  static constexpr BinaryOp kBinaryOps[] = {
      {Token::Type::kIdent, "or", Expression::Op::kOr, 1},
      {Token::Type::kIdent, "and", Expression::Op::kAnd, 2},
      {Token::Type::kIdent, "like", Expression::Op::kLike, kComparePrec},
      {Token::Type::kIdent, "in", Expression::Op::kIn, kComparePrec},
      {Token::Type::kSymbol, "<=", Expression::Op::kLe, kComparePrec},
      {Token::Type::kSymbol, ">=", Expression::Op::kGe, kComparePrec},
      {Token::Type::kSymbol, "<>", Expression::Op::kNe, kComparePrec},
      {Token::Type::kSymbol, "!=", Expression::Op::kNe, kComparePrec},
      {Token::Type::kSymbol, "=", Expression::Op::kEq, kComparePrec},
      {Token::Type::kSymbol, "<", Expression::Op::kLt, kComparePrec},
      {Token::Type::kSymbol, ">", Expression::Op::kGt, kComparePrec},
      {Token::Type::kSymbol, "+", Expression::Op::kAdd, 5},
      {Token::Type::kSymbol, "-", Expression::Op::kSub, 5},
      {Token::Type::kSymbol, "*", Expression::Op::kMul, 6},
      {Token::Type::kSymbol, "/", Expression::Op::kDiv, 6},
  };

  /// The binary operator at the cursor, or nullptr.
  const BinaryOp* PeekBinaryOp() const {
    const Token& t = Peek();
    if (t.type != Token::Type::kIdent && t.type != Token::Type::kSymbol) return nullptr;
    const std::string text =
        t.type == Token::Type::kIdent ? strings::ToLower(t.text) : t.text;
    for (const BinaryOp& o : kBinaryOps) {
      if (o.type == t.type && o.text == text) return &o;
    }
    return nullptr;
  }

  /// An expression of operators binding at least as tight as `min_prec`.
  Result<ExprPtr> ParseExpr(int min_prec) {
    // NOT negates a whole comparison; a run of NOTs is read in a loop, so
    // it costs no stack. Below the comparisons `NOT` is a column name.
    size_t nots = 0;
    if (min_prec <= kNotPrec) {
      for (; MatchKeyword("NOT"); ++nots) PIYE_RETURN_NOT_OK(CountNodes(1));
    }
    PIYE_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary());
    int lhs_prec = std::numeric_limits<int>::max();  // of lhs's top operator
    for (const BinaryOp* op; (op = PeekBinaryOp()) != nullptr;) {
      if (nots > 0 && op->prec <= kNotPrec) {
        for (; nots > 0; --nots) lhs = Expression::Not(std::move(lhs));
        lhs_prec = kNotPrec;
      }
      // A tighter operator than lhs's own can only follow a comparison the
      // loop refused to chain; leave it to the caller's trailing check.
      if (op->prec < min_prec || op->prec > lhs_prec ||
          (op->prec == kComparePrec && lhs_prec == kComparePrec)) {
        break;
      }
      Advance();
      PIYE_RETURN_NOT_OK(CountNodes(1));
      if (op->op == Expression::Op::kIn) {
        PIYE_ASSIGN_OR_RETURN(lhs, ParseInList(std::move(lhs)));
      } else {
        PIYE_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr(op->prec + 1));
        lhs = Expression::Binary(op->op, std::move(lhs), std::move(rhs));
      }
      lhs_prec = op->prec;
    }
    for (; nots > 0; --nots) lhs = Expression::Not(std::move(lhs));
    return lhs;
  }

  /// `(literal, ...)` after `lhs IN`.
  Result<ExprPtr> ParseInList(ExprPtr lhs) {
    if (!MatchSymbol("(")) return Error("expected '(' after IN");
    std::vector<Value> values;
    do {
      const size_t nodes_before = nodes_;
      PIYE_ASSIGN_OR_RETURN(ExprPtr lit, ParsePrimary());
      nodes_ = nodes_before;  // the list holds values, not nodes
      if (lit->op() != Expression::Op::kLiteral) {
        return Error("IN list must contain literals");
      }
      values.push_back(lit->literal());
    } while (MatchSymbol(","));
    if (!MatchSymbol(")")) return Error("expected ')' after IN list");
    return Expression::In(std::move(lhs), std::move(values));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.type == Token::Type::kNumber || t.type == Token::Type::kString ||
        t.type == Token::Type::kIdent) {
      PIYE_RETURN_NOT_OK(CountNodes(1));
    }
    switch (t.type) {
      case Token::Type::kNumber: {
        const std::string text = t.text;
        Advance();
        if (text.find('.') != std::string::npos) {
          return Expression::Literal(Value::Real(std::strtod(text.c_str(), nullptr)));
        }
        errno = 0;
        const long long v = std::strtoll(text.c_str(), nullptr, 10);
        if (errno == ERANGE) return Error("integer literal out of range: " + text);
        return Expression::Literal(Value::Int(v));
      }
      case Token::Type::kString: {
        std::string text = t.text;
        Advance();
        return Expression::Literal(Value::Str(std::move(text)));
      }
      case Token::Type::kIdent: {
        const std::string lower = strings::ToLower(t.text);
        if (lower == "true") {
          Advance();
          return Expression::Literal(Value::Boolean(true));
        }
        if (lower == "false") {
          Advance();
          return Expression::Literal(Value::Boolean(false));
        }
        if (lower == "null") {
          Advance();
          return Expression::Literal(Value::Null());
        }
        std::string name = t.text;
        Advance();
        return Expression::ColumnRef(std::move(name));
      }
      case Token::Type::kSymbol:
        if (t.text == "(") {
          // The only recursion in the grammar; a tree of n nodes prints
          // with at most n nested parentheses.
          if (depth_ == kMaxExpressionNodes) {
            return Error("parentheses nest deeper than " +
                         std::to_string(kMaxExpressionNodes));
          }
          Advance();
          ++depth_;
          PIYE_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(0));
          --depth_;
          if (!MatchSymbol(")")) return Error("expected ')'");
          return e;
        }
        if (t.text == "-") {
          // A run of unary minuses is read in a loop, not by recursion;
          // each becomes `0 - x`, two nodes.
          size_t negations = 0;
          for (; MatchSymbol("-"); ++negations) PIYE_RETURN_NOT_OK(CountNodes(2));
          PIYE_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
          for (; negations > 0; --negations) {
            e = Expression::Binary(Expression::Op::kSub,
                                   Expression::Literal(Value::Int(0)), std::move(e));
          }
          return e;
        }
        return Error("unexpected symbol '" + t.text + "'");
      case Token::Type::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t nodes_ = 0;  ///< tree nodes counted so far
  size_t depth_ = 0;  ///< open parentheses
};

}  // namespace

Result<SelectStatement> ParseSql(std::string_view sql) {
  PIYE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(sql).Run());
  return Parser(std::move(tokens)).ParseSelect();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  PIYE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Run());
  return Parser(std::move(tokens)).ParseBareExpression();
}

}  // namespace relational
}  // namespace piye
