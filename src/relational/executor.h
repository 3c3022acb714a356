#ifndef PIYE_RELATIONAL_EXECUTOR_H_
#define PIYE_RELATIONAL_EXECUTOR_H_

#include <cstdint>
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

/// The rows of a base table that a statement's WHERE selected, computed
/// before execution and handed to `Executor::Execute(stmt, base, selection)`.
struct Selection {
  enum class Kind {
    kAll,   ///< every row (the statement has no WHERE)
    kRows,  ///< `rows`: ascending row positions
    kMask,  ///< `mask`: one 0/1 byte per row
  };
  Kind kind = Kind::kAll;
  std::vector<uint32_t> rows;
  std::vector<uint8_t> mask;
  size_t count = 0;  ///< number of selected rows

  static Selection All(size_t num_rows);
  static Selection Rows(std::vector<uint32_t> rows);
  /// Counts the set bytes in one branch-free pass over the whole mask.
  static Selection Mask(std::vector<uint8_t> mask);
};

/// Volcano-in-miniature: executes a parsed SELECT against a catalog. All
/// operators also exist as standalone functions so the privacy layers can
/// compose pipelines directly (e.g. perturb → aggregate → project).
class Executor {
 public:
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Executes a full SELECT statement.
  Result<Table> Execute(const SelectStatement& stmt) const;

  /// Executes `stmt` over `base` (its `table` name is not looked up) with
  /// the WHERE already evaluated to `selection`. Positions are gathered
  /// before any operator runs. A mask is accumulated without a gather when
  /// the statement is an ungrouped aggregate, so its cost does not depend on
  /// how many rows are selected; any other statement gathers the masked rows.
  static Result<Table> Execute(const SelectStatement& stmt, const Table& base,
                               const Selection& selection);

  /// Parses and executes SQL text.
  Result<Table> Query(std::string_view sql) const;

  // --- Standalone relational operators ---

  /// Rows of `input` satisfying `predicate`.
  static Result<Table> Filter(const Table& input, const ExprPtr& predicate);

  /// Positions of the rows of `input` satisfying `predicate`, ascending —
  /// Filter's selection vector, before any cell is copied.
  static Result<std::vector<uint32_t>> FilterSelection(const Table& input,
                                                       const Expression& predicate);

  /// One 0/1 byte per row of `input`: whether `predicate` holds there. The
  /// same evaluation as FilterSelection, without collecting positions.
  static Result<std::vector<uint8_t>> FilterMask(const Table& input,
                                                 const Expression& predicate);

  /// Projection onto named columns.
  static Result<Table> Project(const Table& input, const std::vector<std::string>& columns);

  /// Grouped aggregation. With empty `group_by`, produces one global row.
  /// `mask` (global aggregation only) holds one 0/1 byte per input row; rows
  /// whose byte is 0 accumulate into a discarded group, so the result equals
  /// aggregating the gathered selected rows at a cost that does not depend
  /// on how many bytes are set.
  static Result<Table> Aggregate(const Table& input,
                                 const std::vector<std::string>& group_by,
                                 const std::vector<SelectItem>& aggregates,
                                 const uint8_t* mask = nullptr);

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
