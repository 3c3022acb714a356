#ifndef PIYE_POLICY_POLICY_H_
#define PIYE_POLICY_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "policy/purpose.h"
#include "relational/expression.h"
#include "xml/node.h"

namespace piye {
namespace policy {

/// The disclosure forms of Section 3 ("exact value, aggregate, range, etc."),
/// ordered from least to most revealing. A rule grants a *maximum* form; the
/// query rewriter and preservation module coarsen results down to it.
enum class DisclosureForm {
  kDenied = 0,       ///< never disclosed
  kAggregate = 1,    ///< only through statistical aggregates
  kRange = 2,        ///< disclosed as a generalized range/interval
  kGeneralized = 3,  ///< disclosed after hierarchy generalization (k-anonymity)
  kExact = 4,        ///< full value
};

const char* DisclosureFormToString(DisclosureForm form);
Result<DisclosureForm> ParseDisclosureForm(const std::string& s);

/// Identifies a protected data item: a column of a table. "*" is a wildcard
/// on either component.
struct DataItemRef {
  std::string table;
  std::string column;

  bool Matches(const std::string& t, const std::string& c) const {
    return (table == "*" || table == t) && (column == "*" || column == c);
  }
  std::string ToString() const { return table + "." + column; }
};

/// One rule of the source policy language: who (recipients) may see what
/// (item) for which purposes, in what maximal form, under which row
/// condition, and with how much tolerable privacy loss.
struct PolicyRule {
  std::string id;
  bool deny = false;  ///< deny rules veto any matching grant
  DataItemRef item;
  std::vector<std::string> purposes;    ///< any-of, lattice-expanded; "*" = any
  std::vector<std::string> recipients;  ///< requester roles/org ids; "*" = any
  DisclosureForm form = DisclosureForm::kDenied;
  relational::ExprPtr condition;  ///< optional row-level guard (may be null)
  double max_privacy_loss = 1.0;  ///< in [0,1]; see inference/privacy_loss
};

/// The verdict of evaluating a request against a policy.
struct Disclosure {
  DisclosureForm form = DisclosureForm::kDenied;
  double max_privacy_loss = 0.0;
  /// Conjunction of the conditions of all applied grant rules (null if none).
  relational::ExprPtr condition;
  /// Ids of the rules that produced this verdict.
  std::vector<std::string> rule_ids;

  bool allowed() const { return form != DisclosureForm::kDenied; }
};

/// A source's privacy policy: an owner id plus a rule list, evaluated with
/// deny-overrides / default-deny combining.
class PrivacyPolicy {
 public:
  PrivacyPolicy() = default;
  PrivacyPolicy(std::string owner, std::vector<PolicyRule> rules)
      : owner_(std::move(owner)), rules_(std::move(rules)) {}

  const std::string& owner() const { return owner_; }
  const std::vector<PolicyRule>& rules() const { return rules_; }
  void AddRule(PolicyRule rule) { rules_.push_back(std::move(rule)); }

  /// Evaluates a request for (table, column) by `recipient` for `purpose`.
  ///
  /// Combining algorithm: a matching deny rule ⇒ kDenied; otherwise the
  /// *most* permissive form among matching grants, the *smallest* loss budget
  /// among them (conservative), and the AND of their row conditions. No
  /// matching rule ⇒ kDenied (default deny).
  Disclosure Evaluate(const std::string& table, const std::string& column,
                      const std::string& purpose, const std::string& recipient,
                      const PurposeLattice& lattice) const;

  /// Serializes to the XML policy language.
  std::unique_ptr<xml::XmlNode> ToXml() const;

  /// Parses the XML policy language:
  ///
  ///   <policy owner="HMO1">
  ///     <rule id="r1" effect="grant|deny">
  ///       <item table="compliance" column="rate"/>
  ///       <purpose>research</purpose>  (repeatable)
  ///       <recipient>*</recipient>     (repeatable)
  ///       <form>aggregate</form>
  ///       <condition>year = 2001</condition>  (optional, SQL expression)
  ///       <maxLoss>0.3</maxLoss>              (optional, default 1.0)
  ///     </rule>
  ///   </policy>
  static Result<PrivacyPolicy> FromXml(const xml::XmlNode& node);

  /// Parses policy XML text.
  static Result<PrivacyPolicy> Parse(std::string_view xml_text);

 private:
  std::string owner_;
  std::vector<PolicyRule> rules_;
};

}  // namespace policy
}  // namespace piye

#endif  // PIYE_POLICY_POLICY_H_
