#ifndef PIYE_RELATIONAL_SQL_H_
#define PIYE_RELATIONAL_SQL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/expression.h"

namespace piye {
namespace relational {

/// Aggregate functions supported by the executor.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kStdDev };

const char* AggFuncToString(AggFunc f);

/// One item of a SELECT list.
struct SelectItem {
  enum class Kind {
    kStar,       ///< `*`
    kColumn,     ///< `col`
    kAggregate,  ///< `FUNC(col)` or `COUNT(*)` (column empty)
  };

  Kind kind = Kind::kColumn;
  std::string column;
  AggFunc func = AggFunc::kCount;
  std::string alias;

  static SelectItem Star() { return {Kind::kStar, "", AggFunc::kCount, ""}; }
  static SelectItem Col(std::string name, std::string alias = "") {
    return {Kind::kColumn, std::move(name), AggFunc::kCount, std::move(alias)};
  }
  static SelectItem Agg(AggFunc f, std::string col, std::string alias = "") {
    return {Kind::kAggregate, std::move(col), f, std::move(alias)};
  }

  /// Column name in the result schema: alias if given, else `col` or
  /// `func(col)`.
  std::string OutputName() const;
};

/// ORDER BY key.
struct OrderKey {
  std::string column;
  bool ascending = true;
};

/// A parsed SELECT statement over a single table.
///
/// Grammar (case-insensitive keywords):
///   SELECT item [, item]* FROM table
///     [WHERE expr] [GROUP BY col [, col]*]
///     [ORDER BY col [ASC|DESC] [, ...]] [LIMIT n]
///
/// This covers the query surface the mediation engine fragments to sources —
/// selections, projections, and the statistical aggregates whose privacy the
/// paper's Example 1 is about. There are no joins: the Result Integrator
/// combines the sources' answers.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  ExprPtr where;  ///< null means no WHERE clause
  std::vector<std::string> group_by;
  std::vector<OrderKey> order_by;
  std::optional<size_t> limit;

  bool HasAggregates() const;
  bool HasStar() const;
};

/// Parses the SELECT subset described above.
Result<SelectStatement> ParseSql(std::string_view sql);

/// Parses just an expression (the WHERE grammar), used by policy languages to
/// express row conditions.
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_SQL_H_
