#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace piye {
namespace strings {

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  return ToLower(haystack).find(ToLower(needle)) != std::string::npos;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(longest);
}

std::vector<std::string> TokenizeIdentifier(std::string_view ident) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(ToLower(cur));
      cur.clear();
    }
  };
  for (size_t i = 0; i < ident.size(); ++i) {
    const char c = ident[i];
    if (c == '_' || c == '-' || c == ' ' || c == '.' || c == '/') {
      flush();
    } else if (std::isupper(static_cast<unsigned char>(c)) && !cur.empty() &&
               std::islower(static_cast<unsigned char>(cur.back()))) {
      flush();
      cur += c;
    } else {
      cur += c;
    }
  }
  flush();
  return tokens;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace strings
}  // namespace piye
