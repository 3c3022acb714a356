#ifndef PIYE_SOURCE_QUERY_TRANSFORMER_H_
#define PIYE_SOURCE_QUERY_TRANSFORMER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql.h"
#include "source/piql.h"
#include "xml/loose_name.h"

namespace piye {
namespace source {

/// The Query Transformer of Figure 2(a): turns the XML query fragment the
/// mediation engine forwards into the destination source's local language —
/// here, a SQL SelectStatement over the source's actual relational schema.
///
/// Because the mediated schema can be partial, the fragment's attribute
/// names may only approximate the source's column names; the transformer
/// resolves them with the loose name matcher (acronyms, synonyms, token
/// similarity), which is the paper's answer to "the query fragment ... may
/// be approximately constructed".
class QueryTransformer {
 public:
  struct Transformed {
    relational::SelectStatement stmt;
    /// piql attribute name -> resolved source column.
    std::map<std::string, std::string> bindings;
    /// attributes that could not be resolved (dropped from the select list).
    std::vector<std::string> unresolved;
  };

  QueryTransformer(xml::LooseNameMatcher matcher, double threshold = 0.65)
      : matcher_(std::move(matcher)), threshold_(threshold) {}

  /// Transforms `query` against the given table. Fails if the WHERE clause
  /// or the aggregate references an attribute this source cannot resolve
  /// (partial select lists are tolerated; partial predicates are not — a
  /// silently weakened predicate would return rows the requester did not
  /// ask for).
  Result<Transformed> Transform(const PiqlQuery& query, const std::string& table_name,
                                const relational::Schema& schema) const;

  /// Best-scoring column of `schema` for `attribute`, or error below the
  /// threshold.
  Result<std::string> ResolveAttribute(const std::string& attribute,
                                       const relational::Schema& schema) const;

 private:
  xml::LooseNameMatcher matcher_;
  double threshold_;
};

/// Rewrites every column reference in `expr` through `bindings`; fails on an
/// unbound column. Shared subtrees are rebuilt only where needed.
Result<relational::ExprPtr> RewriteColumns(
    const relational::ExprPtr& expr,
    const std::map<std::string, std::string>& bindings);

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_QUERY_TRANSFORMER_H_
