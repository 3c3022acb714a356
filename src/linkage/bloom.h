#ifndef PIYE_LINKAGE_BLOOM_H_
#define PIYE_LINKAGE_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace piye {
namespace linkage {

/// A plain Bloom filter with double hashing (Kirsch–Mitzenmacher) over
/// SHA-256-derived hash pairs: the value sketch the schema matcher compares
/// by Dice similarity, so sources never exchange raw column values.
class BloomFilter {
 public:
  BloomFilter(size_t num_bits, size_t num_hashes);

  /// Reconstructs a filter from its raw bit vector — how a sketch's value
  /// filter is rebuilt after crossing the wire. The bits are adopted as-is:
  /// Dice similarity needs only the bits.
  static BloomFilter FromBits(std::vector<bool> bits, size_t num_hashes) {
    BloomFilter f(1, num_hashes);
    f.bits_ = std::move(bits);
    return f;
  }

  void Insert(std::string_view item);

  size_t num_bits() const { return bits_.size(); }
  size_t num_hashes() const { return num_hashes_; }
  size_t PopCount() const;

  /// Dice coefficient of two equally sized filters: 2|A∩B| / (|A|+|B|) over
  /// set bits — the standard PPRL similarity score.
  static double DiceSimilarity(const BloomFilter& a, const BloomFilter& b);

  const std::vector<bool>& bits() const { return bits_; }

 private:
  void Positions(std::string_view item, std::vector<size_t>* out) const;

  std::vector<bool> bits_;
  size_t num_hashes_;
};

}  // namespace linkage
}  // namespace piye

#endif  // PIYE_LINKAGE_BLOOM_H_
