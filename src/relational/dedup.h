#ifndef PIYE_RELATIONAL_DEDUP_H_
#define PIYE_RELATIONAL_DEDUP_H_

#include <cstdint>
#include <vector>

#include "relational/column.h"

namespace piye {
namespace relational {

/// The key columns of one block of rows. `cols[k]` is the block's k-th key
/// column, or nullptr when the block lacks that column and every cell of it
/// reads as NULL. Blocks that share a key position agree on its ColumnType.
struct KeyBlock {
  std::vector<const ColumnVector*> cols;
  size_t num_rows = 0;
};

/// When two key cells are equal. Under both, NULL equals only NULL, BOOL
/// compares by value and STRING by bytes.
enum class KeyEquality {
  /// INT64 by value (no collapse of INT64s above 2^53); DOUBLE by bit
  /// pattern, so -0.0 != 0.0, except that all NaNs of one sign are equal;
  /// an INT64 never equals a DOUBLE.
  kExact,
  /// `Value::Compare`'s equality, the classes `ColumnVector::EncodeCell`
  /// keys draw: INT64 and DOUBLE compare by the bit pattern of `AsDouble()`
  /// with -0.0 folded into 0.0, so an INT64 equals the DOUBLE it converts
  /// to and INT64s above 2^53 may collide; NaNs are equal only bit for bit.
  kCompare,
};

/// Numbers the distinct keys of the rows of `blocks`, taken in order as one
/// sequence: classes are 0, 1, ... in order of first occurrence, and the
/// result holds each class's first position (so it ascends). When
/// `row_class` is set it receives the class of every position.
///
/// Keys are hashed straight off the typed buffers and a hash match is
/// confirmed by typed equality, cell by cell, under `equality`. Every block
/// has the same number of key columns; with none, all rows share one class.
std::vector<uint32_t> KeyClasses(const std::vector<KeyBlock>& blocks,
                                 KeyEquality equality,
                                 std::vector<uint32_t>* row_class);

/// Plaintext duplicate elimination: the ascending positions of the first
/// row of every distinct key under KeyEquality::kExact.
inline std::vector<uint32_t> FirstOccurrences(const std::vector<KeyBlock>& blocks) {
  return KeyClasses(blocks, KeyEquality::kExact, nullptr);
}

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_DEDUP_H_
