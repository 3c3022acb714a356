#ifndef PIYE_RELATIONAL_COLUMN_H_
#define PIYE_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/value.h"

namespace piye {
namespace relational {

/// Column-major typed storage for one table column.
///
/// Cells live in a contiguous typed buffer chosen by the column's
/// ColumnType — `int64_t` for kInt64, `double` for kDouble, `uint8_t` for
/// kBool, and an (offset, length) pair into a shared byte arena for kString.
/// NULLs are tracked by a validity bitmap (bit set = value present); a NULL
/// cell still occupies its aligned slot in the typed buffer (with a zero
/// payload), so positional row indexes always line up with buffer indexes.
/// That invariant is what makes NULL-misalignment bugs (dense value vector
/// written back by raw row index) structurally impossible against this
/// storage.
///
/// Cells are only ever appended; no cell is overwritten through a Value.
/// The one in-place write is a perturbation kernel's typed payload write
/// (`mutable_ints`/`mutable_reals`), which leaves the string arena alone, so
/// the arena holds exactly the bytes of the cells that use it.
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(ColumnType type) : type_(type) {}

  ColumnType type() const { return type_; }
  size_t size() const { return size_; }

  // -- validity ------------------------------------------------------------
  bool IsNull(size_t i) const {
    return (validity_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }
  /// Number of non-NULL cells.
  size_t CountValid() const;

  // -- typed readers (only valid for the matching type(); a NULL cell reads
  // -- as the zero payload) ------------------------------------------------
  const int64_t* ints() const { return ints_.data(); }
  const double* reals() const { return reals_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double RealAt(size_t i) const { return reals_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  std::string_view StrAt(size_t i) const {
    return std::string_view(arena_.data() + str_offset_[i], str_len_[i]);
  }

  // -- typed writers (in-place perturbation kernels; the caller skips NULL
  // -- cells via the validity bitmap) --------------------------------------
  int64_t* mutable_ints() { return ints_.data(); }
  double* mutable_reals() { return reals_.data(); }

  // -- appends -------------------------------------------------------------
  void Reserve(size_t n);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendReal(double v);
  void AppendBool(bool v);
  void AppendStr(std::string_view v);
  /// Appends `v` coerced to this column's type: NULL appends NULL, an exact
  /// type match appends directly, an INT64 value widens into a kDouble
  /// column. Any other mismatch appends NULL (such cells were already
  /// unserializable under the row engine).
  void AppendValue(const Value& v);
  /// Appends `n` NULL cells.
  void AppendNulls(size_t n);
  /// Appends `n` copies of the string `v` (kString columns only).
  void AppendStrRun(std::string_view v, size_t n);
  /// Appends cell `i` of `src` (same ColumnType required).
  void AppendFrom(const ColumnVector& src, size_t i);
  /// Appends cells `sel[0..n)` of `src`, in that order (same ColumnType
  /// required). A bulk typed copy: payloads are copied by index (a NULL
  /// slot already holds the zero payload), the string arena grows once by
  /// the selected lengths, and validity is assembled a word at a time.
  void AppendGather(const ColumnVector& src, const uint32_t* sel, size_t n);

  // -- point access --------------------------------------------------------
  /// Materializes cell `i` as a Value (NULL-aware).
  Value ValueAt(size_t i) const;

  // -- batch ops -----------------------------------------------------------
  /// New column holding rows `sel[0..n)` of this one, in that order. A
  /// string column's arena holds only the selected rows' bytes.
  ColumnVector Gather(const uint32_t* sel, size_t n) const;

  /// New kString column (this one must be kString) holding each cell cut
  /// to its first `keep` bytes, followed by `mark` where bytes were cut
  /// ("1974-02-06" -> "197*"); NULLs stay NULL. The arena is sized up
  /// front and each cell written into it once.
  ColumnVector Prefixes(size_t keep, char mark) const;

  /// Appends the canonical grouping key encoding of cell `i` to `out`.
  /// Two cells encode identically iff `Value::Compare` orders them equal:
  /// NULL is a single tag byte, booleans a tag + payload byte, numerics a
  /// tag + the bit pattern of `AsDouble()` (with -0.0 canonicalized to +0.0,
  /// matching Compare's cross-type numeric comparison — including its lossy
  /// collapse of distinct INT64s above 2^53), strings a tag + length +
  /// bytes.
  void EncodeCell(size_t i, std::string* out) const;

  /// Actual buffer footprint: typed payload + validity words + (for string
  /// columns) arena bytes and offset/length vectors.
  size_t ApproxBytes() const;

 private:
  void AppendValiditySlot(bool present);
  /// Bulk append of `n` cells of `src`; cell k comes from row `row_at(k)`.
  template <typename RowAt>
  void AppendRows(const ColumnVector& src, size_t n, RowAt row_at);

  ColumnType type_ = ColumnType::kString;
  size_t size_ = 0;
  /// One bit per cell, 1 = value present. Word-packed, little-endian bits.
  std::vector<uint64_t> validity_;

  // Exactly one of these holds payloads, per type_. String cells are
  // (offset, length) views into arena_.
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> str_offset_;
  std::vector<uint32_t> str_len_;
  std::string arena_;
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_COLUMN_H_
