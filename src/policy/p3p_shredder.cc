#include "policy/p3p_shredder.h"

#include <algorithm>
#include <set>

#include "common/macros.h"

namespace piye {
namespace policy {

using relational::Column;
using relational::ColumnType;
using relational::Expression;
using relational::ExprPtr;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

namespace {

constexpr char kRules[] = "p3p_rules";
constexpr char kPurposes[] = "p3p_rule_purposes";
constexpr char kRecipients[] = "p3p_rule_recipients";

Schema RulesSchema() {
  return Schema{Column{"owner", ColumnType::kString},
                Column{"rule_id", ColumnType::kString},
                Column{"item_table", ColumnType::kString},
                Column{"item_column", ColumnType::kString},
                Column{"form", ColumnType::kInt64},
                Column{"deny", ColumnType::kBool},
                Column{"max_loss", ColumnType::kDouble}};
}

Schema LinkSchema(const char* value_column) {
  return Schema{Column{"owner", ColumnType::kString},
                Column{"rule_id", ColumnType::kString},
                Column{value_column, ColumnType::kString}};
}

Table* EnsureTable(relational::Catalog* catalog, const std::string& name,
                   Schema schema) {
  if (!catalog->HasTable(name)) catalog->PutTable(name, Table(std::move(schema)));
  return *catalog->GetMutableTable(name);
}

ExprPtr Eq(const char* column, const std::string& value) {
  return Expression::Binary(Expression::Op::kEq, Expression::ColumnRef(column),
                            Expression::Literal(Value::Str(value)));
}

}  // namespace

Status PolicyShredder::Shred(const PrivacyPolicy& policy,
                             relational::Catalog* catalog) {
  if (policy.owner().empty()) {
    return Status::InvalidArgument("policy must have an owner to be shredded");
  }
  Table* rules = EnsureTable(catalog, kRules, RulesSchema());
  Table* purposes = EnsureTable(catalog, kPurposes, LinkSchema("purpose"));
  Table* recipients = EnsureTable(catalog, kRecipients, LinkSchema("recipient"));
  for (const PolicyRule& rule : policy.rules()) {
    PIYE_RETURN_NOT_OK(rules->AppendRow(
        Row{Value::Str(policy.owner()), Value::Str(rule.id),
            Value::Str(rule.item.table), Value::Str(rule.item.column),
            Value::Int(static_cast<int64_t>(rule.form)), Value::Boolean(rule.deny),
            Value::Real(rule.max_privacy_loss)}));
    for (const auto& p : rule.purposes) {
      PIYE_RETURN_NOT_OK(purposes->AppendRow(
          Row{Value::Str(policy.owner()), Value::Str(rule.id), Value::Str(p)}));
    }
    for (const auto& r : rule.recipients) {
      PIYE_RETURN_NOT_OK(recipients->AppendRow(
          Row{Value::Str(policy.owner()), Value::Str(rule.id), Value::Str(r)}));
    }
  }
  return Status::OK();
}

Result<Disclosure> PolicyShredder::Evaluate(
    const relational::Catalog& catalog, const std::string& owner,
    const std::string& table, const std::string& column, const std::string& purpose,
    const std::string& recipient, const PurposeLattice& lattice) {
  Disclosure out;
  if (!catalog.HasTable(kRules)) return out;  // nothing shredded ⇒ default deny
  PIYE_ASSIGN_OR_RETURN(const Table* rules, catalog.GetTable(kRules));
  PIYE_ASSIGN_OR_RETURN(const Table* purposes, catalog.GetTable(kPurposes));
  PIYE_ASSIGN_OR_RETURN(const Table* recipients, catalog.GetTable(kRecipients));

  // 1. Item-matching rules of this owner:
  //    owner = :owner AND (item_table IN ('*', :table))
  //                  AND (item_column IN ('*', :column)).
  ExprPtr pred = Eq("owner", owner);
  pred = Expression::And(
      pred, Expression::In(Expression::ColumnRef("item_table"),
                           {Value::Str("*"), Value::Str(table)}));
  pred = Expression::And(
      pred, Expression::In(Expression::ColumnRef("item_column"),
                           {Value::Str("*"), Value::Str(column)}));
  PIYE_ASSIGN_OR_RETURN(Table candidate, relational::Executor::Filter(*rules, pred));

  // 2. The purposes the requester's purpose satisfies: its ancestor chain
  //    plus the wildcard.
  // (Direct equality matches even for purposes unknown to the lattice,
  // mirroring PurposeLattice::Satisfies.)
  std::vector<Value> satisfied{Value::Str("*"), Value::Str(purpose)};
  for (const auto& p : lattice.Ancestors(purpose)) satisfied.push_back(Value::Str(p));

  // purpose links that the request satisfies.
  PIYE_ASSIGN_OR_RETURN(
      Table purpose_hits,
      relational::Executor::Filter(
          *purposes,
          Expression::And(Eq("owner", owner),
                          Expression::In(Expression::ColumnRef("purpose"),
                                         satisfied))));
  // recipient links that match.
  PIYE_ASSIGN_OR_RETURN(
      Table recipient_hits,
      relational::Executor::Filter(
          *recipients,
          Expression::And(Eq("owner", owner),
                          Expression::In(Expression::ColumnRef("recipient"),
                                         {Value::Str("*"), Value::Str(recipient)}))));

  // 3. candidate ⋈ purpose_hits ⋈ recipient_hits on rule_id.
  PIYE_ASSIGN_OR_RETURN(Table with_purpose,
                        relational::Executor::HashJoin(candidate, purpose_hits,
                                                       "rule_id", "rule_id"));
  PIYE_ASSIGN_OR_RETURN(Table matching,
                        relational::Executor::HashJoin(with_purpose, recipient_hits,
                                                       "rule_id", "rule_id"));
  // A rule may join multiple times (several satisfied purposes); dedup.
  std::set<std::string> seen;
  PIYE_ASSIGN_OR_RETURN(size_t id_idx, matching.schema().IndexOf("rule_id"));
  PIYE_ASSIGN_OR_RETURN(size_t form_idx, matching.schema().IndexOf("form"));
  PIYE_ASSIGN_OR_RETURN(size_t deny_idx, matching.schema().IndexOf("deny"));
  PIYE_ASSIGN_OR_RETURN(size_t loss_idx, matching.schema().IndexOf("max_loss"));

  out.max_privacy_loss = 1.0;
  bool any_grant = false;
  const relational::ColumnVector& ids = matching.col(id_idx);
  const relational::ColumnVector& forms = matching.col(form_idx);
  const relational::ColumnVector& denies = matching.col(deny_idx);
  const relational::ColumnVector& losses = matching.col(loss_idx);
  for (size_t r = 0; r < matching.num_rows(); ++r) {
    std::string id(ids.StrAt(r));
    if (!seen.insert(id).second) continue;
    if (denies.BoolAt(r)) {
      Disclosure denied;
      denied.rule_ids = {std::move(id)};
      return denied;
    }
    any_grant = true;
    out.rule_ids.push_back(std::move(id));
    out.form = std::max(out.form, static_cast<DisclosureForm>(forms.IntAt(r)));
    out.max_privacy_loss = std::min(out.max_privacy_loss, losses.RealAt(r));
  }
  if (!any_grant) {
    out.form = DisclosureForm::kDenied;
    out.max_privacy_loss = 0.0;
  }
  std::sort(out.rule_ids.begin(), out.rule_ids.end());
  return out;
}

size_t PolicyShredder::RuleCount(const relational::Catalog& catalog,
                                 const std::string& owner) {
  auto rules = catalog.GetTable(kRules);
  if (!rules.ok()) return 0;
  size_t n = 0;
  auto idx = (*rules)->schema().IndexOf("owner");
  if (!idx.ok()) return 0;
  const relational::ColumnVector& owners = (*rules)->col(*idx);
  for (size_t r = 0; r < owners.size(); ++r) {
    if (owners.StrAt(r) == owner) ++n;
  }
  return n;
}

}  // namespace policy
}  // namespace piye
