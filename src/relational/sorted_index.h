#ifndef PIYE_RELATIONAL_SORTED_INDEX_H_
#define PIYE_RELATIONAL_SORTED_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/executor.h"
#include "relational/expression.h"
#include "relational/table.h"

namespace piye {
namespace relational {

/// `column op literal` after normalisation (a `literal op column` conjunct
/// is flipped), with op one of =, <, <=, >, >=.
struct IndexBound {
  Expression::Op op = Expression::Op::kEq;
  Value literal;
};

/// The part of a WHERE a sorted index answers: the conjuncts of its top-level
/// AND chain that bound `column` against a non-NULL, non-NaN literal of the
/// column's type rank, and the AND of every other conjunct (null if none).
struct IndexableWhere {
  size_t column = 0;
  std::vector<IndexBound> bounds;
  ExprPtr residual;
};

/// Splits `where` for an index scan of `table`, or returns nullopt and the
/// caller keeps the full scan. An eligible WHERE is built only from nodes the
/// vectorized filter evaluates without raising: literals, known columns,
/// comparisons between columns and literals, AND/OR/NOT, and IN over a
/// column (LIKE, arithmetic and unknown columns are not). Its AND chain must
/// bound exactly one column: a chain with no bound (a top-level OR or NOT,
/// say) or with bounds on two columns is not eligible. Because such a WHERE
/// cannot raise, evaluating its conjuncts in any order, or on any subset of
/// rows, selects what Executor::FilterSelection selects.
std::optional<IndexableWhere> MatchIndexable(const ExprPtr& where,
                                             const Table& table);

/// A sorted-permutation index over one column: `perm` lists every row, NULL
/// cells first, then the rest in ascending cell order, and `rank` is its
/// inverse. About 8 bytes per row.
class SortedIndex {
 public:
  /// nullopt for a DOUBLE column holding a NaN: Compare orders NaN equal to
  /// every number, so such a column has no sort order to search.
  static std::optional<SortedIndex> Build(const ColumnVector& col);

  /// Positions [lo, hi) of `perm`.
  struct Range {
    uint32_t lo = 0;
    uint32_t hi = 0;
    size_t size() const { return hi - lo; }
  };

  /// The positions whose cells satisfy every bound, by binary search over
  /// `col`, the column the index was built from.
  Range Find(const ColumnVector& col, const std::vector<IndexBound>& bounds) const;

  /// The selection of a WHERE whose bounds gave `range`, `residual` being
  /// the rest of it (null if none); `table` is the table the index was built
  /// over. kRows: the range's rows in ascending row order, with the residual
  /// evaluated on those rows only; the work follows the range size. kMask:
  /// every row's rank tested against the range in one branch-free pass,
  /// ANDed with the residual evaluated on every row; the work does not
  /// depend on the range size.
  Result<Selection> Select(const Table& table, Range range, const ExprPtr& residual,
                           Selection::Kind shape) const;

 private:
  std::vector<uint32_t> perm_;
  std::vector<uint32_t> rank_;
  uint32_t nulls_ = 0;
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_SORTED_INDEX_H_
