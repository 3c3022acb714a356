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

/// Plaintext duplicate elimination over the rows of `blocks`, taken in
/// order as one sequence: returns the ascending positions (in that
/// sequence) of the first row of every distinct key.
///
/// Keys are hashed straight off the typed buffers and a hash match is
/// confirmed by exact typed equality, cell by cell:
///   - NULL equals only NULL;
///   - INT64 and BOOL compare by value (no collapse of INT64s above 2^53);
///   - DOUBLE compares by bit pattern, so -0.0 != 0.0, except that all NaNs
///     of one sign are equal;
///   - STRING compares by bytes.
/// Every block has the same number of key columns; with none, all rows
/// share one key.
std::vector<uint32_t> FirstOccurrences(const std::vector<KeyBlock>& blocks);

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_DEDUP_H_
