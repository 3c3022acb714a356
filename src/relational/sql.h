#ifndef PIYE_RELATIONAL_SQL_H_
#define PIYE_RELATIONAL_SQL_H_

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
    kColumn,     ///< `col`
    kAggregate,  ///< `FUNC(col)` or `COUNT(*)` (column empty)
  };

  Kind kind = Kind::kColumn;
  std::string column;
  AggFunc func = AggFunc::kCount;
  std::string alias;

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

/// A parsed SELECT statement over a single table.
///
/// Grammar (case-insensitive keywords):
///   SELECT item [, item]* FROM table
///     [WHERE expr] [GROUP BY col [, col]*]
///   item := col [AS alias] | FUNC(col) [AS alias] | COUNT(*) [AS alias]
///
/// This is what a PIQL fragment can say once the Query Transformer has
/// mapped it to the source's local names: selections, projections, and the
/// statistical aggregates whose privacy the paper's Example 1 is about.
/// There is no `*` (every output column is named, so column-level policy
/// sees each one), no ORDER BY and no LIMIT (PIQL has neither), and no
/// joins: the Result Integrator combines the sources' answers.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  ExprPtr where;  ///< null means no WHERE clause
  std::vector<std::string> group_by;

  bool HasAggregates() const;
};

/// Parses the SELECT subset described above.
Result<SelectStatement> ParseSql(std::string_view sql);

/// Parses just an expression (the WHERE grammar), used by policy languages to
/// express row conditions.
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_SQL_H_
