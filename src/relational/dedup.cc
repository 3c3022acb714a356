#include "relational/dedup.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string_view>

namespace piye {
namespace relational {

namespace {

constexpr uint64_t kNullHash = 0x6a09e667f3bcc909ULL;
constexpr uint32_t kEmptySlot = 0xffffffffu;

/// splitmix64's finalizer: spreads a 64-bit key over all bits.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t Combine(uint64_t h, uint64_t cell) {
  return (h ^ cell) * 0x9e3779b97f4a7c15ULL;
}

/// The bit pattern of `d`, with every NaN of one sign mapped to one pattern
/// (the same classes the shortest round-trip rendering "nan"/"-nan" draws).
uint64_t DoubleKey(double d) {
  if (std::isnan(d)) {
    return std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Folds the cells of `col` (nullptr: all NULL) into the row hashes `h`.
void HashColumn(const ColumnVector* col, size_t n, uint64_t* h) {
  if (col == nullptr) {
    for (size_t r = 0; r < n; ++r) h[r] = Combine(h[r], kNullHash);
    return;
  }
  switch (col->type()) {
    case ColumnType::kInt64: {
      const int64_t* v = col->ints();
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash
                                            : Mix(static_cast<uint64_t>(v[r])));
      }
      return;
    }
    case ColumnType::kDouble: {
      const double* v = col->reals();
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash : Mix(DoubleKey(v[r])));
      }
      return;
    }
    case ColumnType::kBool: {
      const uint8_t* v = col->bools();
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash : Mix(v[r] + 1));
      }
      return;
    }
    case ColumnType::kString: {
      const std::hash<std::string_view> hash;
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash : hash(col->StrAt(r)));
      }
      return;
    }
  }
}

bool CellsEqual(const ColumnVector* a, size_t i, const ColumnVector* b, size_t j) {
  const bool a_null = a == nullptr || a->IsNull(i);
  const bool b_null = b == nullptr || b->IsNull(j);
  if (a_null || b_null) return a_null == b_null;
  if (a->type() != b->type()) return false;
  switch (a->type()) {
    case ColumnType::kInt64:
      return a->IntAt(i) == b->IntAt(j);
    case ColumnType::kDouble:
      return DoubleKey(a->RealAt(i)) == DoubleKey(b->RealAt(j));
    case ColumnType::kBool:
      return a->BoolAt(i) == b->BoolAt(j);
    case ColumnType::kString:
      return a->StrAt(i) == b->StrAt(j);
  }
  return false;
}

}  // namespace

std::vector<uint32_t> FirstOccurrences(const std::vector<KeyBlock>& blocks) {
  // start[b] is the position of block b's first row in the whole sequence.
  std::vector<size_t> start(blocks.size() + 1, 0);
  for (size_t b = 0; b < blocks.size(); ++b) {
    start[b + 1] = start[b] + blocks[b].num_rows;
  }
  const size_t total = start.back();
  std::vector<uint64_t> hash(total, 0);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (const ColumnVector* col : blocks[b].cols) {
      HashColumn(col, blocks[b].num_rows, hash.data() + start[b]);
    }
  }
  auto block_of = [&start](size_t pos) {
    return static_cast<size_t>(std::upper_bound(start.begin(), start.end(), pos) -
                               start.begin()) - 1;
  };
  auto rows_equal = [&](size_t bx, size_t x, size_t by, size_t y) {
    const KeyBlock& kx = blocks[bx];
    const KeyBlock& ky = blocks[by];
    for (size_t k = 0; k < kx.cols.size(); ++k) {
      if (!CellsEqual(kx.cols[k], x - start[bx], ky.cols[k], y - start[by])) {
        return false;
      }
    }
    return true;
  };

  // Open addressing over row positions, linear probing, load factor <= 1/2.
  size_t capacity = 16;
  while (capacity < 2 * total) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, kEmptySlot);
  std::vector<uint32_t> first;
  size_t b = 0;
  for (size_t pos = 0; pos < total; ++pos) {
    while (pos >= start[b + 1]) ++b;
    const uint64_t h = hash[pos];
    size_t s = Mix(h) & mask;
    bool seen = false;
    for (; slots[s] != kEmptySlot; s = (s + 1) & mask) {
      const uint32_t other = slots[s];
      if (hash[other] == h && rows_equal(block_of(other), other, b, pos)) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      slots[s] = static_cast<uint32_t>(pos);
      first.push_back(static_cast<uint32_t>(pos));
    }
  }
  return first;
}

}  // namespace relational
}  // namespace piye
