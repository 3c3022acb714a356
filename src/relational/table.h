#ifndef PIYE_RELATIONAL_TABLE_H_
#define PIYE_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace piye {
namespace relational {

/// A row of values, positionally aligned with a Schema. With columnar
/// storage a Row is not the storage unit: it is what `AppendRow` takes and
/// what row-at-a-time expression evaluation reads.
using Row = std::vector<Value>;

/// An in-memory table: a schema plus column-major typed storage (one
/// ColumnVector per column). This is the storage unit of the remote-source
/// databases and of intermediate query results.
///
/// Columns are held by shared_ptr with copy-on-write: copying a Table (or
/// projecting a subset of its columns) shares the underlying buffers;
/// `MutableColumn` clones a column only when it is actually shared. Hot
/// paths (the vectorized executor, the perturbation/anonymization kernels)
/// work on ColumnVector buffers directly; single cells are read through
/// `Cell`.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  /// Rename-only access (SELECT aliases). Adding or removing columns through
  /// this reference would desynchronize schema and storage; use AddColumn.
  Schema& mutable_schema() { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }
  bool empty() const { return num_rows_ == 0; }

  // -- columnar access (hot paths) -----------------------------------------
  const ColumnVector& col(size_t i) const { return *cols_[i]; }
  /// Copy-on-write: clones the column first if its buffers are shared with
  /// another Table.
  ColumnVector* MutableColumn(size_t i);
  /// Materializes cell (row, col) as a Value.
  Value Cell(size_t row_idx, size_t col_idx) const {
    return cols_[col_idx]->ValueAt(row_idx);
  }

  /// Appends a column (NULL-padded up to num_rows(); a first column sets
  /// the row count).
  void AddColumn(Column meta, ColumnVector data);
  /// Replaces the storage of column `i` with `data`, which must hold
  /// num_rows() cells; the column keeps its name and takes `data`'s type.
  /// Other holders of the old buffers keep them.
  void ReplaceColumn(size_t i, ColumnVector data);

  /// New table exposing columns `col_indices` (in that order) by sharing
  /// their buffers — projection without copying any cell.
  Table ProjectShared(const std::vector<size_t>& col_indices) const;

  /// New table holding rows `sel[0..n)` in that order (selection-vector
  /// materialization).
  Table Gather(const uint32_t* sel, size_t n) const;
  Table Gather(const std::vector<uint32_t>& sel) const {
    return Gather(sel.data(), sel.size());
  }

  // -- row appends (cold paths) --------------------------------------------
  /// Appends a row after arity and (non-NULL) type checking.
  Status AppendRow(Row row);
  /// Appends without validation (hot paths that construct rows themselves).
  /// Cells coerce per ColumnVector::AppendValue (INT64 widens into DOUBLE
  /// columns; other mismatches store NULL).
  void AppendRowUnchecked(const Row& row);

  /// Numeric column as doubles (NULLs skipped).
  Result<std::vector<double>> NumericColumn(const std::string& column) const;

  /// In-memory footprint of the actual columnar buffers (schema + validity
  /// bitmaps + typed payloads + string arenas), used by memory-bounded
  /// caches to account for what an entry costs to keep. Shared (CoW) columns
  /// are counted in full by every holder.
  size_t ApproxBytes() const;

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<ColumnVector>> cols_;
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_TABLE_H_
