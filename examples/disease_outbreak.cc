// Example 2 from the paper: disease-outbreak surveillance. Countries hold
// daily case counts they will not share row-level; through PRIVATE-IYE they
// share privacy-preserving aggregates for the "disease-surveillance"
// purpose, and the integrated curve still detects the outbreak — contrast
// with the no-sharing world where the signal never crosses the threshold.
//
//   $ ./build/examples/disease_outbreak

#include <cstdio>
#include <map>

#include "core/outbreak.h"
#include "core/private_iye.h"
#include "policy/policy.h"

using piye::core::OutbreakScenario;
using piye::core::PrivateIye;

int main() {
  const std::vector<std::string> countries{"singapore", "hongkong", "china",
                                           "canada"};
  const size_t days = 70, outbreak_day = 35, outbreak_at = 2;  // china
  auto tables =
      OutbreakScenario::MakeCaseTables(countries, days, outbreak_day, outbreak_at, 5);

  // Keep a copy of the ground truth curves for the comparison worlds.
  std::vector<std::vector<double>> truth(countries.size(),
                                         std::vector<double>(days, 0.0));
  for (size_t c = 0; c < countries.size(); ++c) {
    for (size_t r = 0; r < tables[c].num_rows(); ++r) {
      truth[c][static_cast<size_t>(tables[c].Cell(r, 0).AsInt())] =
          static_cast<double>(tables[c].Cell(r, 2).AsInt());
    }
  }

  piye::mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.99;
  options.max_cumulative_loss = 1000.0;
  // The warehouse is on by default: emergencies need quick re-answers.
  PrivateIye system(options);
  for (size_t c = 0; c < countries.size(); ++c) {
    auto* src = system.AddSource(countries[c], "cases", std::move(tables[c]),
                                 static_cast<uint64_t>(c) + 1);
    piye::policy::PrivacyPolicy policy(countries[c], {});
    piye::policy::PolicyRule cases_rule;
    cases_rule.id = "cases-aggregate";
    cases_rule.item = {"*", "cases"};
    cases_rule.purposes = {"disease-surveillance"};
    cases_rule.recipients = {"*"};
    cases_rule.form = piye::policy::DisclosureForm::kAggregate;
    cases_rule.max_privacy_loss = 0.9;
    policy.AddRule(cases_rule);
    piye::policy::PolicyRule day_rule;
    day_rule.id = "day-public";
    day_rule.item = {"*", "day"};
    day_rule.purposes = {"*"};
    day_rule.recipients = {"*"};
    day_rule.form = piye::policy::DisclosureForm::kExact;
    policy.AddRule(day_rule);
    (void)src->mutable_policies()->AddPolicy(std::move(policy));
    (void)src->mutable_rbac()->AddRole("who");
    (void)src->mutable_rbac()->AssignRole("who", "who");
    (void)src->mutable_rbac()->Grant("who", piye::access::Action::kSelect, "*", "*");
  }
  if (!system.Initialize().ok()) return 1;

  auto result = system.QueryXml(R"(
    <query requester="who" purpose="disease-surveillance" maxLoss="0.95">
      <aggregate func="SUM" attribute="cases"><groupBy>day</groupBy></aggregate>
    </query>)");
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Integrated surveillance feed: %zu sources answered, combined "
              "privacy loss %.2f\n",
              result->sources_answered.size(), result->combined_privacy_loss);

  // Reassemble the integrated daily curve from the privacy-preserving feed.
  std::map<int64_t, double> by_day;
  auto day_idx = result->table().schema().IndexOf("day");
  auto sum_idx = result->table().schema().IndexOf("sum_cases");
  if (!day_idx.ok() || !sum_idx.ok()) return 1;
  const auto& integrated_table = result->table();
  for (size_t r = 0; r < integrated_table.num_rows(); ++r) {
    by_day[integrated_table.Cell(r, *day_idx).AsInt()] +=
        integrated_table.Cell(r, *sum_idx).AsDouble();
  }
  std::vector<double> integrated;
  for (size_t d = 0; d < days; ++d) integrated.push_back(by_day[(int64_t)d]);

  // Comparison worlds.
  std::vector<double> no_sharing(days, 0.0);
  for (size_t c = 0; c < countries.size(); ++c) {
    if (c == outbreak_at) continue;  // the affected country does not share
    for (size_t d = 0; d < days; ++d) no_sharing[d] += truth[c][d];
  }
  const long with_piye = OutbreakScenario::DetectOutbreak(integrated, 7, 2.0);
  const long without = OutbreakScenario::DetectOutbreak(no_sharing, 7, 2.0);

  std::printf("\nOutbreak starts on day %zu in %s.\n", outbreak_day,
              countries[outbreak_at].c_str());
  std::printf("Detection with privacy-preserving sharing: day %ld\n", with_piye);
  if (without < 0) {
    std::printf("Detection without the affected country's data: NEVER\n");
  } else {
    std::printf("Detection without the affected country's data: day %ld\n", without);
  }

  // Small ASCII sparkline of the integrated curve.
  std::printf("\nIntegrated daily totals:\n");
  double mx = 1.0;
  for (double v : integrated) mx = std::max(mx, v);
  for (size_t d = 0; d < days; d += 2) {
    const int bar = static_cast<int>(integrated[d] / mx * 50.0);
    std::printf("day %2zu %6.0f |%.*s%s\n", d, integrated[d], bar,
                "##################################################",
                d == static_cast<size_t>(with_piye) ? " <- detected" : "");
  }
  return 0;
}
