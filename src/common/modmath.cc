#include "common/modmath.h"

#include <initializer_list>

#include "common/sha256.h"

namespace piye {
namespace modmath {

// Largest safe prime below 2^61: p = 2q + 1 with q prime. Verified by the
// Miller–Rabin certificate test in tests/common_test.cc.
const uint64_t kSafePrime = 2305843009213691579ULL;
const uint64_t kSubgroupOrder = 1152921504606845789ULL;  // (p - 1) / 2
const uint64_t kSubgroupGenerator = 4ULL;                // 2^2, a quadratic residue

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m) {
  uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulMod(result, base, m);
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}

uint64_t InvMod(uint64_t a, uint64_t m) { return PowMod(a % m, m - 2, m); }

bool IsPrime(uint64_t n) {
  if (n < 2) return false;
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                     29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  // This witness set is deterministic for all 64-bit integers.
  for (uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                     29ULL, 31ULL, 37ULL}) {
    uint64_t x = PowMod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      x = MulMod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

uint64_t HashToGroup(const char* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  const Sha256::Digest d = h.Finish();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<size_t>(i)];
  v %= kSafePrime;
  if (v == 0) v = 2;
  // Squaring maps into the order-q subgroup of quadratic residues.
  return MulMod(v, v, kSafePrime);
}

}  // namespace modmath
}  // namespace piye
