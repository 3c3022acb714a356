#include "xml/loose_name.h"

#include <algorithm>

#include "common/strings.h"

namespace piye {
namespace xml {
namespace {

std::string Acronym(const std::vector<std::string>& tokens) {
  std::string out;
  for (const auto& t : tokens) {
    if (!t.empty()) out += t[0];
  }
  return out;
}

}  // namespace

LooseNameMatcher::LooseNameMatcher() = default;

void LooseNameMatcher::AddSynonyms(const std::vector<std::string>& group) {
  // If any member already belongs to a group, merge into that group id.
  int group_id = -1;
  for (const auto& t : group) {
    auto it = synonym_group_.find(strings::ToLower(t));
    if (it != synonym_group_.end()) {
      group_id = it->second;
      break;
    }
  }
  if (group_id < 0) group_id = next_group_++;
  for (const auto& t : group) synonym_group_[strings::ToLower(t)] = group_id;
}

double LooseNameMatcher::TokenSimilarity(const std::string& a,
                                         const std::string& b) const {
  if (a == b) return 1.0;
  auto ia = synonym_group_.find(a);
  auto ib = synonym_group_.find(b);
  if (ia != synonym_group_.end() && ib != synonym_group_.end() &&
      ia->second == ib->second) {
    return 1.0;
  }
  return strings::EditSimilarity(a, b);
}

double LooseNameMatcher::NameSimilarity(std::string_view a, std::string_view b) const {
  const std::string la = strings::ToLower(a);
  const std::string lb = strings::ToLower(b);
  if (la == lb) return 1.0;
  const std::vector<std::string> ta = strings::TokenizeIdentifier(a);
  const std::vector<std::string> tb = strings::TokenizeIdentifier(b);
  if (ta.empty() || tb.empty()) return 0.0;
  // Acronym expansion: "dob" vs {date, of, birth}.
  if (ta.size() == 1 && tb.size() > 1 && ta[0] == Acronym(tb)) return 0.95;
  if (tb.size() == 1 && ta.size() > 1 && tb[0] == Acronym(ta)) return 0.95;
  // Whole-name (and acronym) synonym groups: "birthdate" ~ group{dob,...},
  // and "dateOfBirth" enters the same group through its acronym "dob".
  auto direct_group = [this](const std::string& lower) {
    auto it = synonym_group_.find(lower);
    return it != synonym_group_.end() ? it->second : -1;
  };
  auto acronym_group = [this](const std::vector<std::string>& tokens) {
    if (tokens.size() < 2) return -1;
    auto it = synonym_group_.find(Acronym(tokens));
    return it != synonym_group_.end() ? it->second : -1;
  };
  const int da = direct_group(la), db = direct_group(lb);
  if (da >= 0 && da == db) return 1.0;  // declared synonyms are certain
  const int ga = da >= 0 ? da : acronym_group(ta);
  const int gb = db >= 0 ? db : acronym_group(tb);
  if (ga >= 0 && ga == gb) return 0.95;  // acronym-mediated synonymy
  // Symmetric Monge–Elkan over token similarities.
  auto directed = [&](const std::vector<std::string>& xs,
                      const std::vector<std::string>& ys) {
    double total = 0.0;
    for (const auto& x : xs) {
      double best = 0.0;
      for (const auto& y : ys) best = std::max(best, TokenSimilarity(x, y));
      total += best;
    }
    return total / static_cast<double>(xs.size());
  };
  return 0.5 * (directed(ta, tb) + directed(tb, ta));
}

}  // namespace xml
}  // namespace piye
