#ifndef PIYE_COMMON_STRINGS_H_
#define PIYE_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace piye {
namespace strings {

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Levenshtein edit distance.
size_t EditDistance(std::string_view a, std::string_view b);

/// Normalized edit similarity in [0,1]: 1 - dist/max(len).
double EditSimilarity(std::string_view a, std::string_view b);

/// Splits identifiers like "dateOfBirth", "date_of_birth", "date-of-birth"
/// into lower-case tokens {"date","of","birth"} — the tokenizer used by the
/// name-based schema matcher.
std::vector<std::string> TokenizeIdentifier(std::string_view ident);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// FNV-1a 64-bit hash — stable across platforms and runs (unlike
/// std::hash), so it is usable for deriving deterministic per-call RNG
/// streams from serialized queries.
uint64_t Fnv1a64(std::string_view s);

}  // namespace strings
}  // namespace piye

#endif  // PIYE_COMMON_STRINGS_H_
