#include "policy/policy.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "relational/sql.h"
#include "xml/parser.h"

namespace piye {
namespace policy {

const char* DisclosureFormToString(DisclosureForm form) {
  switch (form) {
    case DisclosureForm::kDenied:
      return "denied";
    case DisclosureForm::kAggregate:
      return "aggregate";
    case DisclosureForm::kRange:
      return "range";
    case DisclosureForm::kGeneralized:
      return "generalized";
    case DisclosureForm::kExact:
      return "exact";
  }
  return "?";
}

Result<DisclosureForm> ParseDisclosureForm(const std::string& s) {
  const std::string t = strings::ToLower(strings::Trim(s));
  if (t == "denied") return DisclosureForm::kDenied;
  if (t == "aggregate") return DisclosureForm::kAggregate;
  if (t == "range") return DisclosureForm::kRange;
  if (t == "generalized") return DisclosureForm::kGeneralized;
  if (t == "exact") return DisclosureForm::kExact;
  return Status::ParseError("unknown disclosure form '" + s + "'");
}

namespace {

bool RuleMatches(const PolicyRule& rule, const std::string& table,
                 const std::string& column, const std::string& purpose,
                 const std::string& recipient, const PurposeLattice& lattice) {
  if (!rule.item.Matches(table, column)) return false;
  const bool purpose_ok =
      std::any_of(rule.purposes.begin(), rule.purposes.end(),
                  [&](const std::string& p) { return lattice.Satisfies(purpose, p); });
  if (!purpose_ok) return false;
  const bool recipient_ok =
      std::any_of(rule.recipients.begin(), rule.recipients.end(),
                  [&](const std::string& r) { return r == "*" || r == recipient; });
  return recipient_ok;
}

}  // namespace

Disclosure PrivacyPolicy::Evaluate(const std::string& table, const std::string& column,
                                   const std::string& purpose,
                                   const std::string& recipient,
                                   const PurposeLattice& lattice) const {
  Disclosure out;
  out.max_privacy_loss = 1.0;
  bool any_grant = false;
  for (const PolicyRule& rule : rules_) {
    if (!RuleMatches(rule, table, column, purpose, recipient, lattice)) continue;
    if (rule.deny) {
      // Deny overrides: stop immediately.
      Disclosure denied;
      denied.rule_ids = {rule.id};
      return denied;
    }
    any_grant = true;
    out.rule_ids.push_back(rule.id);
    out.form = std::max(out.form, rule.form);
    out.max_privacy_loss = std::min(out.max_privacy_loss, rule.max_privacy_loss);
    out.condition = relational::Expression::And(out.condition, rule.condition);
  }
  if (!any_grant) {
    out.form = DisclosureForm::kDenied;
    out.max_privacy_loss = 0.0;
  }
  return out;
}

std::unique_ptr<xml::XmlNode> PrivacyPolicy::ToXml() const {
  auto node = xml::XmlNode::Element("policy");
  node->SetAttr("owner", owner_);
  for (const PolicyRule& rule : rules_) {
    xml::XmlNode* r = node->AddElement("rule");
    r->SetAttr("id", rule.id);
    r->SetAttr("effect", rule.deny ? "deny" : "grant");
    xml::XmlNode* item = r->AddElement("item");
    item->SetAttr("table", rule.item.table);
    item->SetAttr("column", rule.item.column);
    for (const auto& p : rule.purposes) r->AddElementWithText("purpose", p);
    for (const auto& rec : rule.recipients) r->AddElementWithText("recipient", rec);
    if (!rule.deny) {
      r->AddElementWithText("form", DisclosureFormToString(rule.form));
      if (rule.condition != nullptr) {
        r->AddElementWithText("condition", rule.condition->ToString());
      }
      r->AddElementWithText("maxLoss", strings::Format("%g", rule.max_privacy_loss));
    }
  }
  return node;
}

Result<PrivacyPolicy> PrivacyPolicy::FromXml(const xml::XmlNode& node) {
  if (node.name() != "policy") {
    return Status::ParseError("expected <policy>, got <" + node.name() + ">");
  }
  PrivacyPolicy policy;
  const std::string* owner = node.GetAttr("owner");
  policy.owner_ = owner != nullptr ? *owner : "";
  for (const xml::XmlNode* r : node.Children("rule")) {
    PolicyRule rule;
    const std::string* id = r->GetAttr("id");
    rule.id = id != nullptr ? *id : strings::Format("rule%zu", policy.rules().size());
    const std::string* effect = r->GetAttr("effect");
    rule.deny = effect != nullptr && *effect == "deny";
    const xml::XmlNode* item = r->FirstChild("item");
    if (item == nullptr) return Status::ParseError("<rule> missing <item>");
    const std::string* table = item->GetAttr("table");
    const std::string* column = item->GetAttr("column");
    if (table == nullptr || column == nullptr) {
      return Status::ParseError("<item> missing table/column");
    }
    rule.item = {*table, *column};
    for (const xml::XmlNode* p : r->Children("purpose")) {
      rule.purposes.push_back(p->InnerText());
    }
    for (const xml::XmlNode* rec : r->Children("recipient")) {
      rule.recipients.push_back(rec->InnerText());
    }
    if (rule.purposes.empty()) rule.purposes.push_back("*");
    if (rule.recipients.empty()) rule.recipients.push_back("*");
    if (!rule.deny) {
      const xml::XmlNode* form = r->FirstChild("form");
      if (form == nullptr) {
        return Status::ParseError("grant <rule> missing <form>");
      }
      PIYE_ASSIGN_OR_RETURN(rule.form, ParseDisclosureForm(form->InnerText()));
      const xml::XmlNode* cond = r->FirstChild("condition");
      if (cond != nullptr) {
        PIYE_ASSIGN_OR_RETURN(rule.condition,
                              relational::ParseExpression(cond->InnerText()));
      }
      const xml::XmlNode* loss = r->FirstChild("maxLoss");
      if (loss != nullptr) {
        rule.max_privacy_loss = std::strtod(loss->InnerText().c_str(), nullptr);
      }
    }
    policy.AddRule(std::move(rule));
  }
  return policy;
}

Result<PrivacyPolicy> PrivacyPolicy::Parse(std::string_view xml_text) {
  PIYE_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(xml_text));
  return FromXml(doc.root());
}

}  // namespace policy
}  // namespace piye
