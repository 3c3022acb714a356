#ifndef PIYE_RELATIONAL_EXECUTOR_H_
#define PIYE_RELATIONAL_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql.h"
#include "relational/table.h"

namespace piye {
namespace relational {

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

/// Volcano-in-miniature: executes a parsed SELECT over a source's own
/// table. All operators also exist as standalone functions so the privacy
/// layers can compose pipelines directly (e.g. perturb → aggregate →
/// project).
class Executor {
 public:
  /// Executes `stmt` over `base` (its `table` name is not looked up) with
  /// the WHERE already evaluated to `selection`. Positions are gathered
  /// before any operator runs. A mask is accumulated without a gather when
  /// the statement is an ungrouped aggregate, so its cost does not depend on
  /// how many rows are selected; any other statement gathers the masked rows.
  static Result<Table> Execute(const SelectStatement& stmt, const Table& base,
                               const Selection& selection);

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
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_EXECUTOR_H_
