#ifndef PIYE_RELATIONAL_EXECUTOR_H_
#define PIYE_RELATIONAL_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql.h"
#include "relational/table.h"

namespace piye {
namespace relational {

/// A named collection of tables — each remote source owns one, and the
/// mediator's warehouse is one too.
class Catalog {
 public:
  /// Replaces or creates a table.
  void PutTable(const std::string& name, Table table);
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);
  bool HasTable(const std::string& name) const;

 private:
  std::map<std::string, Table> tables_;
};

/// Volcano-in-miniature: executes a parsed SELECT against a catalog. All
/// operators also exist as standalone functions so the privacy layers can
/// compose pipelines directly (e.g. perturb → aggregate → project).
class Executor {
 public:
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Executes a full SELECT statement.
  Result<Table> Execute(const SelectStatement& stmt) const;

  /// Parses and executes SQL text.
  Result<Table> Query(std::string_view sql) const;

  // --- Standalone relational operators ---

  /// Rows of `input` satisfying `predicate`.
  static Result<Table> Filter(const Table& input, const ExprPtr& predicate);

  /// Positions of the rows of `input` satisfying `predicate`, ascending —
  /// Filter's selection vector, before any cell is copied.
  static Result<std::vector<uint32_t>> FilterSelection(const Table& input,
                                                       const Expression& predicate);

  /// Projection onto named columns.
  static Result<Table> Project(const Table& input, const std::vector<std::string>& columns);

  /// Grouped aggregation. With empty `group_by`, produces one global row.
  static Result<Table> Aggregate(const Table& input,
                                 const std::vector<std::string>& group_by,
                                 const std::vector<SelectItem>& aggregates);

  /// Hash equi-join on `left_key` = `right_key`. Right columns are prefixed
  /// with `right_prefix` when names collide.
  static Result<Table> HashJoin(const Table& left, const Table& right,
                                const std::string& left_key,
                                const std::string& right_key,
                                const std::string& right_prefix = "r_");

  /// Union of two tables with identical schemas.
  static Result<Table> Union(const Table& a, const Table& b);

  /// Distinct rows (exact duplicate elimination).
  static Table Distinct(const Table& input);

  /// Sorts by the given keys.
  static Result<Table> Sort(Table input, const std::vector<OrderKey>& keys);

  /// First `n` rows.
  static Table Limit(const Table& input, size_t n);

 private:
  const Catalog* catalog_;
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_EXECUTOR_H_
