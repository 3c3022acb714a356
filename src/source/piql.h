#ifndef PIYE_SOURCE_PIQL_H_
#define PIYE_SOURCE_PIQL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/sql.h"
#include "xml/node.h"

namespace piye {
namespace persist {
class Encoder;
}  // namespace persist

namespace source {

/// Aggregate request inside a PIQL query.
struct PiqlAggregate {
  relational::AggFunc func = relational::AggFunc::kAvg;
  std::string attribute;               ///< mediated attribute name (loose)
  std::vector<std::string> group_by;   ///< mediated attribute names
};

/// PIQL — the Privacy-conscious Query Language of Section 5.
///
/// A requester formulates queries against the *mediated* schema, which may
/// be partial, so attribute names are matched loosely downstream (e.g.
/// `dateOfBirth` reaches a source column named `dob`). Beyond the relational
/// content, a PIQL query carries the requester's identity, the stated
/// purpose, and the maximum information loss the requester will accept in
/// the integrated result — the three privacy-specific inputs the paper adds
/// to query formulation.
///
/// XML form:
///   <query requester="cdc" purpose="disease-surveillance" maxLoss="0.4">
///     <target path="//patient"/>
///     <select>dateOfBirth</select>
///     <select>diagnosis</select>
///     <where>diagnosis = 'diabetes'</where>              (optional; being XML
///         text, comparison operators use entities: age &lt; 40)
///     <aggregate func="AVG" attribute="complianceRate">  (optional)
///       <groupBy>hmo</groupBy>
///     </aggregate>
///   </query>
struct PiqlQuery {
  std::string requester;
  std::string purpose = "any";
  double max_information_loss = 1.0;
  std::string target_path = "//record";
  std::vector<std::string> select;
  relational::ExprPtr where;  ///< over mediated attribute names; may be null
  std::optional<PiqlAggregate> aggregate;

  /// Parses the XML form above — the requester's syntax, read once at the
  /// front door. `maxLoss`, when given, must be a complete number in
  /// [0, 1] (no NaN, no trailing text). `target_path` is informational
  /// metadata for hierarchical sources (the record path the requester
  /// believes it is addressing); resolution happens through the mediated
  /// schema.
  static Result<PiqlQuery> Parse(std::string_view xml_text);
  /// The XML form, for display; `maxLoss` is the shortest text that reads
  /// back to the same double, and the WHERE text re-parses to the same tree
  /// (see relational::Expression::ToString).
  std::unique_ptr<xml::XmlNode> ToXml() const;

  /// The query's canonical binary form, and the one format a query takes
  /// inside the system (wire, history, warehouse key, noise seed): a
  /// version byte, then every field length-prefixed in order — requester,
  /// purpose, the exact bits of max_information_loss, target path, the
  /// ordered select list, a 0/1 flag and the WHERE tree
  /// (Expression::AppendCanonicalKey), a 0/1 flag and the aggregate
  /// (function, attribute, group-by list). Two queries have equal keys iff
  /// every field is identical; no XML or text formatting is involved.
  std::string CanonicalKey() const;
  void AppendCanonicalKey(persist::Encoder* enc) const;
  /// Reads back exactly one CanonicalKey. An unknown version, flag or
  /// AggFunc, a WHERE tree Expression::DecodeCanonicalKey refuses, or
  /// trailing bytes fail with kParseError; an accepted key re-encodes to
  /// the same bytes.
  static Result<PiqlQuery> Decode(std::string_view key);

  /// All attribute names the query touches (select + where + aggregate).
  std::vector<std::string> ReferencedAttributes() const;

  bool IsAggregate() const { return aggregate.has_value(); }
};

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_PIQL_H_
