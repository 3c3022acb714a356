#ifndef PIYE_MEDIATOR_FRAGMENTER_H_
#define PIYE_MEDIATOR_FRAGMENTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "match/mediated_schema.h"
#include "source/piql.h"
#include "xml/loose_name.h"

namespace piye {
namespace mediator {

/// The Query Fragmenter of Figure 2(b): parses the requester's PIQL query
/// against the (possibly partial) mediated schema and emits one fragment per
/// relevant source, with mediated attribute names translated to that
/// source's own column names. Sources that cannot satisfy the query's
/// mandatory parts (WHERE, aggregate) are skipped with a recorded reason —
/// "sending queries to irrelevant sources affects adversely the efficiency
/// of the integration process".
class QueryFragmenter {
 public:
  struct Fragment {
    std::string source;
    source::PiqlQuery query;
  };

  struct FragmentationResult {
    std::vector<Fragment> fragments;
    /// source -> reason it was skipped.
    std::map<std::string, std::string> skipped;
  };

  QueryFragmenter(const match::MediatedSchema* schema,
                  xml::LooseNameMatcher name_matcher, double threshold = 0.7)
      : schema_(schema), names_(std::move(name_matcher)), threshold_(threshold) {}

  /// `sources` lists the owners registered with the engine.
  Result<FragmentationResult> Fragment(const source::PiqlQuery& query,
                                       const std::vector<std::string>& sources) const;

  /// Resolves a (possibly loosely named) query attribute to a mediated
  /// attribute, or error.
  Result<const match::MediatedAttribute*> Resolve(const std::string& attribute) const;

 private:
  const match::MediatedSchema* schema_;
  xml::LooseNameMatcher names_;
  double threshold_;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_FRAGMENTER_H_
