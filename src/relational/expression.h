#ifndef PIYE_RELATIONAL_EXPRESSION_H_
#define PIYE_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"

namespace piye {
namespace persist {
class Decoder;
class Encoder;
}  // namespace persist

namespace relational {

/// The most nodes an expression tree may have. Every tree walk recurses
/// once per level and a tree is never deeper than its node count, so this
/// bound also caps the stack any walk uses. ParseExpression and ParseSql
/// (which hold parenthesis nesting to it as well) and
/// Expression::DecodeCanonicalKey refuse larger input with kParseError.
/// The parser spends two frames per parenthesis level (ParsePrimary and its
/// precedence-climbing loop), fewer than any tree walk of the same depth.
inline constexpr size_t kMaxExpressionNodes = 256;

/// A scalar expression tree over a row: literals, column references,
/// comparisons, boolean connectives, arithmetic, LIKE, and IN lists.
///
/// Expressions are immutable once built and shared via shared_ptr so the
/// privacy rewriter (source/privacy_rewriter.h) can compose policy predicates
/// with requester predicates without copying subtrees.
class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

class Expression {
 public:
  enum class Op {
    kLiteral,
    kColumn,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kLike,  ///< SQL LIKE with % and _ wildcards
    kIn,    ///< column IN (literal, ...)
  };

  // --- Factory functions ---
  static ExprPtr Literal(Value v);
  static ExprPtr ColumnRef(std::string name);
  static ExprPtr Binary(Op op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr In(ExprPtr lhs, std::vector<Value> values);
  /// Conjunction helper; either side may be null (returns the other).
  static ExprPtr And(ExprPtr a, ExprPtr b);

  Op op() const { return op_; }
  const Value& literal() const { return literal_; }
  const std::string& column() const { return column_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  const std::vector<Value>& in_values() const { return in_values_; }

  /// Evaluates against a row. Comparisons with NULL yield FALSE (SQL-ish
  /// two-valued simplification).
  Result<Value> Evaluate(const Row& row, const Schema& schema) const;

  /// Evaluates and coerces to a boolean (NULL → false).
  Result<bool> EvaluatesTrue(const Row& row, const Schema& schema) const;

  /// Column names referenced anywhere in the tree.
  void CollectColumns(std::set<std::string>* out) const;

  /// Number of nodes (used as a query feature by the cluster matcher).
  size_t NodeCount() const;

  /// SQL-ish rendering that ParseExpression reads back as the same tree:
  /// string literals double their embedded quotes, and a DOUBLE literal
  /// always carries a decimal point (fixed notation, shortest round-trip
  /// digits) so it does not come back as an INT. Negative literals, which
  /// the parser builds as `0 - x`, and non-finite doubles have no such text.
  std::string ToString() const;

  /// Canonical binary encoding of the tree: per node its kind, then the
  /// column name, the literal's type tag plus exact bytes (strings) or bits
  /// (integers, doubles), or the operands in order. Two trees encode equal
  /// iff they are structurally identical with bit-identical literals.
  void AppendCanonicalKey(persist::Encoder* enc) const;

  /// Reads one tree written by AppendCanonicalKey and rebuilds it through
  /// the factories. An unknown op code or literal tag, a bool byte other
  /// than 0 or 1, an IN list longer than the bytes left, or more than
  /// kMaxExpressionNodes nodes fails with kParseError, so every tree it
  /// accepts re-encodes to exactly the bytes it read.
  static Result<ExprPtr> DecodeCanonicalKey(persist::Decoder* dec);

 private:
  Expression() = default;

  Op op_ = Op::kLiteral;
  Value literal_;
  std::string column_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  std::vector<Value> in_values_;
};

/// Returns true if `text` matches the SQL LIKE `pattern` (% = any run,
/// _ = any single char). Exposed for testing.
bool SqlLikeMatch(std::string_view text, std::string_view pattern);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_EXPRESSION_H_
