#ifndef PIYE_COMMON_MODMATH_H_
#define PIYE_COMMON_MODMATH_H_

#include <cstddef>
#include <cstdint>

namespace piye {

/// Modular arithmetic over 64-bit moduli (via unsigned __int128), the number
/// theory underlying the commutative-cipher PSI protocol in `linkage`.
///
/// The linkage protocols operate in the prime-order subgroup of Z_p^* for the
/// safe prime `kSafePrime` below. 61-bit keys obviously do not offer
/// cryptographic strength; the point of this substrate (see DESIGN.md) is to
/// execute the *protocol* — same message pattern, same cost shape — without an
/// external big-integer dependency.
namespace modmath {

/// The largest safe prime p = 2q + 1 (both p and q prime) below 2^61; the
/// certificate test in tests/common_test.cc re-verifies both primality claims.
extern const uint64_t kSafePrime;

/// The subgroup order q = (p-1)/2.
extern const uint64_t kSubgroupOrder;

/// A generator of the order-q subgroup of Z_p^*.
extern const uint64_t kSubgroupGenerator;

/// (a * b) mod m without overflow.
uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m);

/// (base ^ exp) mod m by square-and-multiply.
uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m);

/// Multiplicative inverse of a mod m (m prime), via Fermat.
uint64_t InvMod(uint64_t a, uint64_t m);

/// Deterministic Miller–Rabin primality test, exact for all 64-bit inputs.
bool IsPrime(uint64_t n);

/// Hashes an arbitrary string into the order-q subgroup (quadratic residues
/// of Z_p^*) by hashing then squaring.
uint64_t HashToGroup(const char* data, size_t len);

}  // namespace modmath
}  // namespace piye

#endif  // PIYE_COMMON_MODMATH_H_
