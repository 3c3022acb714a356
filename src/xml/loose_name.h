#ifndef PIYE_XML_LOOSE_NAME_H_
#define PIYE_XML_LOOSE_NAME_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace piye {
namespace xml {

/// Scores similarity between attribute names for loosely structured queries.
///
/// PRIVATE-IYE's mediated schema may omit the nominal identifiers of
/// sensitive attributes (Section 5, "Design of Privacy-conscious Query
/// Language"): a PIQL query naming `dateOfBirth` must still resolve to a
/// source column named `dob`. The matcher combines:
///  - exact (case-insensitive) equality,
///  - acronym expansion (`dob` vs tokens {date, of, birth}),
///  - a synonym dictionary (`sex` ~ `gender`),
///  - token-level edit similarity (Monge–Elkan aggregation).
class LooseNameMatcher {
 public:
  LooseNameMatcher();

  /// Declares a group of mutually synonymous tokens (lower-case).
  void AddSynonyms(const std::vector<std::string>& group);

  /// Similarity in [0,1]; 1 means certainly the same concept.
  double NameSimilarity(std::string_view a, std::string_view b) const;

 private:
  double TokenSimilarity(const std::string& a, const std::string& b) const;

  std::map<std::string, int> synonym_group_;
  int next_group_ = 0;
};

}  // namespace xml
}  // namespace piye

#endif  // PIYE_XML_LOOSE_NAME_H_
