#include "source/optimizer.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace piye {
namespace source {

Result<PrivacyOptimizer::Plan> PrivacyOptimizer::Choose(
    const relational::SelectStatement& stmt, const relational::Table& base_table,
    const relational::ExprPtr& policy_predicate, size_t sample_size) {
  Plan plan;
  // Estimate the policy predicate's selectivity on a prefix sample.
  if (policy_predicate != nullptr && base_table.num_rows() > 0) {
    const size_t n = std::min(sample_size, base_table.num_rows());
    size_t pass = 0;
    for (size_t r = 0; r < n; ++r) {
      // The ROADMAP item "A Figure 2(a) optimizer whose plan is the plan that
      // runs: index-backed source scans" deletes this prefix sampler.
      // piye-lint: allow(row-loop) last Table::row caller, removed by that item
      const relational::Row row = base_table.row(r);
      PIYE_ASSIGN_OR_RETURN(bool keep,
                            policy_predicate->EvaluatesTrue(row, base_table.schema()));
      if (keep) ++pass;
    }
    plan.estimated_policy_selectivity =
        static_cast<double>(pass) / static_cast<double>(n);
  }
  const bool is_aggregate = stmt.HasAggregates();
  const size_t groups = stmt.group_by.empty() ? 1 : 16;  // coarse default estimate

  const double cost_pushed =
      EstimateCost(base_table.num_rows(), plan.estimated_policy_selectivity,
                   /*push=*/true, is_aggregate, /*after=*/true, groups);
  const double cost_post =
      EstimateCost(base_table.num_rows(), plan.estimated_policy_selectivity,
                   /*push=*/false, is_aggregate, /*after=*/true, groups);
  plan.push_policy_filter = cost_pushed <= cost_post;
  plan.perturb_after_aggregate = is_aggregate;
  plan.estimated_cost = std::min(cost_pushed, cost_post);

  plan.steps.push_back(strings::Format("scan(%s) [%zu rows]", stmt.table.c_str(),
                                       base_table.num_rows()));
  if (plan.push_policy_filter && policy_predicate != nullptr) {
    plan.steps.push_back(strings::Format("filter[policy+query] (sel=%.2f)",
                                         plan.estimated_policy_selectivity));
  } else if (stmt.where != nullptr) {
    plan.steps.push_back("filter[query]");
  }
  if (is_aggregate) plan.steps.push_back("aggregate");
  if (!plan.push_policy_filter && policy_predicate != nullptr) {
    plan.steps.push_back("filter[policy, post hoc]");
  }
  plan.steps.push_back(plan.perturb_after_aggregate ? "preserve[output]"
                                                    : "preserve[rows]");
  return plan;
}

double PrivacyOptimizer::EstimateCost(size_t base_rows, double selectivity,
                                      bool push_policy_filter, bool is_aggregate,
                                      bool perturb_after_aggregate,
                                      size_t num_groups) {
  const double n = static_cast<double>(base_rows);
  const double surviving = push_policy_filter ? n * selectivity : n;
  double cost = n;  // scan + filter evaluation
  // Downstream relational work over surviving rows.
  cost += surviving;
  if (!push_policy_filter) cost += surviving;  // post-hoc policy pass
  // Privacy preservation work.
  const double privacy_rows =
      is_aggregate && perturb_after_aggregate ? static_cast<double>(num_groups)
                                              : surviving;
  cost += 2.0 * privacy_rows;  // perturbation is ~2x a row touch
  return cost;
}

}  // namespace source
}  // namespace piye
