#include "linkage/bloom.h"

#include "common/sha256.h"

namespace piye {
namespace linkage {

BloomFilter::BloomFilter(size_t num_bits, size_t num_hashes)
    : bits_(num_bits == 0 ? 1 : num_bits, false),
      num_hashes_(num_hashes == 0 ? 1 : num_hashes) {}

void BloomFilter::Positions(std::string_view item, std::vector<size_t>* out) const {
  // Double hashing from one SHA-256: h_i = h1 + i*h2 mod m.
  const Sha256::Digest d = Sha256::Hash(item);
  uint64_t h1 = 0, h2 = 0;
  for (int i = 0; i < 8; ++i) {
    h1 = (h1 << 8) | d[static_cast<size_t>(i)];
    h2 = (h2 << 8) | d[static_cast<size_t>(i + 8)];
  }
  if (h2 == 0) h2 = 0x9E3779B97F4A7C15ULL;
  out->clear();
  for (size_t i = 0; i < num_hashes_; ++i) {
    out->push_back((h1 + i * h2) % bits_.size());
  }
}

void BloomFilter::Insert(std::string_view item) {
  std::vector<size_t> pos;
  Positions(item, &pos);
  for (size_t p : pos) bits_[p] = true;
}

size_t BloomFilter::PopCount() const {
  size_t n = 0;
  for (bool b : bits_) n += b ? 1 : 0;
  return n;
}

double BloomFilter::DiceSimilarity(const BloomFilter& a, const BloomFilter& b) {
  if (a.bits_.size() != b.bits_.size()) return 0.0;
  size_t inter = 0;
  for (size_t i = 0; i < a.bits_.size(); ++i) {
    if (a.bits_[i] && b.bits_[i]) ++inter;
  }
  const size_t total = a.PopCount() + b.PopCount();
  if (total == 0) return 1.0;
  return 2.0 * static_cast<double>(inter) / static_cast<double>(total);
}

}  // namespace linkage
}  // namespace piye
