#include "relational/dedup.h"

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

/// A hash of the bytes of `s`. A string of up to 8 bytes (a date cut to a
/// prefix, a code) is read in at most two loads inside its bytes, which
/// with its length determine it, and mixed once.
uint64_t StringHash(std::string_view s) {
  const size_t n = s.size();
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  uint64_t word = 0;
  if (n >= 4 && n <= 8) {
    uint32_t head = 0, tail = 0;
    std::memcpy(&head, p, sizeof(head));
    std::memcpy(&tail, p + n - sizeof(tail), sizeof(tail));
    word = head | (uint64_t{tail} << 32);
  } else if (n > 0 && n < 4) {
    word = p[0] | (uint64_t{p[n / 2]} << 8) | (uint64_t{p[n - 1]} << 16);
  } else if (n > 8) {
    return std::hash<std::string_view>()(s);
  }
  return Mix(word ^ (uint64_t{n} << 59) ^ 0x5bd1e9955bd1e995ULL);
}

bool IsNumeric(ColumnType type) {
  return type == ColumnType::kInt64 || type == ColumnType::kDouble;
}

/// The key of non-NULL numeric cell `i` under `equality`. kExact: an INT64's
/// value, or a DOUBLE's bit pattern with every NaN of one sign mapped to one
/// pattern (the classes the shortest round-trip rendering "nan"/"-nan"
/// draws). kCompare: the bit pattern of AsDouble() with -0.0 folded into 0.0.
uint64_t NumericKey(const ColumnVector& col, size_t i, KeyEquality equality) {
  const bool is_int = col.type() == ColumnType::kInt64;
  double d = is_int ? static_cast<double>(col.IntAt(i)) : col.RealAt(i);
  if (equality == KeyEquality::kExact) {
    if (is_int) return static_cast<uint64_t>(col.IntAt(i));
    if (std::isnan(d)) {
      return std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
    }
  } else if (d == 0.0) {
    d = 0.0;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Folds the cells of `col` (nullptr: all NULL) into the row hashes `h`.
void HashColumn(const ColumnVector* col, size_t n, KeyEquality equality,
                uint64_t* h) {
  if (col == nullptr) {
    for (size_t r = 0; r < n; ++r) h[r] = Combine(h[r], kNullHash);
    return;
  }
  switch (col->type()) {
    case ColumnType::kInt64:
    case ColumnType::kDouble:
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash
                                            : Mix(NumericKey(*col, r, equality)));
      }
      return;
    case ColumnType::kBool: {
      const uint8_t* v = col->bools();
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash : Mix(v[r] + 1));
      }
      return;
    }
    case ColumnType::kString:
      for (size_t r = 0; r < n; ++r) {
        h[r] = Combine(h[r], col->IsNull(r) ? kNullHash : StringHash(col->StrAt(r)));
      }
      return;
  }
}

bool CellsEqual(const ColumnVector* a, size_t i, const ColumnVector* b, size_t j,
                KeyEquality equality) {
  const bool a_null = a == nullptr || a->IsNull(i);
  const bool b_null = b == nullptr || b->IsNull(j);
  if (a_null || b_null) return a_null == b_null;
  const bool numeric = IsNumeric(a->type()) && IsNumeric(b->type());
  if (a->type() != b->type() && !(numeric && equality == KeyEquality::kCompare)) {
    return false;
  }
  if (numeric) return NumericKey(*a, i, equality) == NumericKey(*b, j, equality);
  if (a->type() == ColumnType::kBool) return a->BoolAt(i) == b->BoolAt(j);
  return a->StrAt(i) == b->StrAt(j);
}

}  // namespace

std::vector<uint32_t> KeyClasses(const std::vector<KeyBlock>& blocks,
                                 KeyEquality equality,
                                 std::vector<uint32_t>* row_class) {
  // start[b] is the position of block b's first row in the whole sequence.
  std::vector<size_t> start(blocks.size() + 1, 0);
  for (size_t b = 0; b < blocks.size(); ++b) {
    start[b + 1] = start[b] + blocks[b].num_rows;
  }
  const size_t total = start.back();
  std::vector<uint64_t> hash(total, 0);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (const ColumnVector* col : blocks[b].cols) {
      HashColumn(col, blocks[b].num_rows, equality, hash.data() + start[b]);
    }
  }
  auto rows_equal = [&](size_t bx, size_t x, size_t by, size_t y) {
    const KeyBlock& kx = blocks[bx];
    const KeyBlock& ky = blocks[by];
    for (size_t k = 0; k < kx.cols.size(); ++k) {
      if (!CellsEqual(kx.cols[k], x - start[bx], ky.cols[k], y - start[by],
                      equality)) {
        return false;
      }
    }
    return true;
  };

  // Open addressing over class ids, linear probing, load factor <= 1/2.
  // Class c's first row is at position first[c], in block first_block[c].
  // A row whose key equals the previous row's joins its class unprobed, so
  // a run of equal keys (a generalized answer's rows) costs one comparison
  // per row.
  size_t capacity = 16;
  while (capacity < 2 * total) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, kEmptySlot);
  std::vector<uint32_t> first;
  std::vector<uint32_t> first_block;
  if (row_class != nullptr) row_class->resize(total);
  size_t b = 0, prev_block = 0;
  uint32_t prev_class = kEmptySlot;
  for (size_t pos = 0; pos < total; ++pos) {
    while (pos >= start[b + 1]) ++b;
    const uint64_t h = hash[pos];
    uint32_t cls = kEmptySlot;
    if (pos > 0 && hash[pos - 1] == h && rows_equal(prev_block, pos - 1, b, pos)) {
      cls = prev_class;
    } else {
      size_t s = Mix(h) & mask;
      for (; slots[s] != kEmptySlot; s = (s + 1) & mask) {
        const uint32_t c = slots[s];
        if (hash[first[c]] == h && rows_equal(first_block[c], first[c], b, pos)) break;
      }
      if (slots[s] == kEmptySlot) {
        slots[s] = static_cast<uint32_t>(first.size());
        first.push_back(static_cast<uint32_t>(pos));
        first_block.push_back(static_cast<uint32_t>(b));
      }
      cls = slots[s];
    }
    if (row_class != nullptr) (*row_class)[pos] = cls;
    prev_class = cls;
    prev_block = b;
  }
  return first;
}

}  // namespace relational
}  // namespace piye
