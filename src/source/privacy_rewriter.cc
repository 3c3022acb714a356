#include "source/privacy_rewriter.h"

#include <algorithm>
#include <set>

#include "common/macros.h"

namespace piye {
namespace source {

using policy::DisclosureForm;

policy::Disclosure PrivacyRewriter::EffectiveFor(const std::string& column,
                                                 const PiqlQuery& query) const {
  policy::Disclosure d = policies_->EffectiveDisclosure(
      owner_, /*table=*/"*", column, query.purpose, query.requester);
  // RBAC is a further gate: without SELECT permission the form drops to
  // denied regardless of policy.
  if (d.allowed() &&
      !rbac_->IsAuthorized(query.requester, access::Action::kSelect, "*", column)) {
    d.form = DisclosureForm::kDenied;
    d.max_privacy_loss = 0.0;
  }
  return d;
}

Result<PrivacyRewriter::Rewritten> PrivacyRewriter::Rewrite(
    const relational::SelectStatement& stmt, const PiqlQuery& query) const {
  Rewritten out;
  out.stmt.table = stmt.table;
  out.stmt.group_by = stmt.group_by;

  relational::ExprPtr policy_condition;

  // The WHERE clause must only touch columns the requester may at least
  // filter on (anything not fully denied).
  if (stmt.where != nullptr) {
    std::set<std::string> where_cols;
    stmt.where->CollectColumns(&where_cols);
    for (const auto& col : where_cols) {
      const policy::Disclosure d = EffectiveFor(col, query);
      if (!d.allowed()) {
        return Status::PermissionDenied(
            "predicate references denied column '" + col + "'");
      }
    }
    out.stmt.where = stmt.where;
  }

  for (const auto& item : stmt.items) {
    const std::string& col = item.column;
    policy::Disclosure d =
        col.empty() ? policy::Disclosure{DisclosureForm::kAggregate, 1.0, nullptr, {}}
                    : EffectiveFor(col, query);
    const bool is_aggregate = item.kind == relational::SelectItem::Kind::kAggregate;
    bool allowed = d.allowed();
    if (allowed && !is_aggregate && d.form == DisclosureForm::kAggregate) {
      // Aggregate-only columns cannot be selected row-level.
      allowed = false;
    }
    if (!allowed) {
      out.denied_columns.push_back(item.OutputName());
      continue;
    }
    out.stmt.items.push_back(item);
    out.column_forms[item.OutputName()] =
        is_aggregate ? DisclosureForm::kAggregate : d.form;
    out.column_budgets[item.OutputName()] = d.max_privacy_loss;
    out.loss_budget = std::min(out.loss_budget, d.max_privacy_loss);
    policy_condition = relational::Expression::And(policy_condition, d.condition);
  }
  if (out.stmt.items.empty()) {
    return Status::PrivacyViolation(
        "policy denies every requested column for requester '" + query.requester +
        "' with purpose '" + query.purpose + "'");
  }
  // Drop group-by columns that did not survive.
  out.stmt.group_by.erase(
      std::remove_if(out.stmt.group_by.begin(), out.stmt.group_by.end(),
                     [&](const std::string& g) {
                       for (const auto& item : out.stmt.items) {
                         if (item.kind == relational::SelectItem::Kind::kColumn &&
                             item.column == g) {
                           return false;
                         }
                       }
                       return true;
                     }),
      out.stmt.group_by.end());
  // Integrate the policies' row conditions (rewrite-then-execute).
  out.stmt.where = relational::Expression::And(out.stmt.where, policy_condition);
  return out;
}

}  // namespace source
}  // namespace piye
