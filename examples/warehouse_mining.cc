// The reason the paper wants integration at all: "gathering all relevant
// data from different sources to a central repository and then run a set of
// algorithms against this data to detect trends and patterns". This example
// integrates patient data through PRIVATE-IYE (so everything the miner sees
// is already policy-filtered and coarsened) and then mines the warehoused
// result for association rules and outbreak trends.
//
//   $ ./build/examples/warehouse_mining

#include <cstdio>
#include <map>
#include <string>

#include "core/outbreak.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "core/warehouse_miner.h"

using namespace piye;

int main() {
  // --- Integrate the clinical world, privacy-preserved. ---
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  core::PrivateIye system(options);
  auto tables = core::ClinicalScenario::MakePatientTables(120, 0.4, 2024);
  auto* hospital =
      system.AddSource("hospital", "patients", std::move(tables.hospital), 1);
  core::ClinicalScenario::ApplyPatientPolicies(hospital);
  if (!system.Initialize().ok()) return 1;

  auto result = system.QueryXml(R"(
    <query requester="analyst" purpose="research" maxLoss="0.95">
      <select>diagnosis</select><select>sex</select><select>dob</select>
    </query>)");
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Integrated %zu released records (dob arrives as decade "
              "prefixes, names never arrive at all).\n\n",
              result->table().num_rows());

  // --- Mine the released table. ---
  auto itemsets = core::WarehouseMiner::FrequentItemsets(result->table(), 0.08, 2);
  if (itemsets.ok()) {
    std::printf("Frequent patterns (support >= 8%%):\n");
    size_t shown = 0;
    for (const auto& is : *itemsets) {
      if (is.items.size() < 2) continue;  // pairs are the interesting ones
      std::string text;
      for (const auto& item : is.items) {
        if (!text.empty()) text += " AND ";
        text += item;
      }
      std::printf("  %-52s support %.2f\n", text.c_str(), is.support);
      if (++shown == 8) break;
    }
  }
  auto rules = core::WarehouseMiner::AssociationRules(result->table(), 0.08, 0.5, 2);
  if (rules.ok()) {
    std::printf("\nAssociation rules (confidence >= 0.5, by lift):\n");
    size_t shown = 0;
    for (const auto& rule : *rules) {
      std::string lhs;
      for (const auto& item : rule.lhs) {
        if (!lhs.empty()) lhs += " AND ";
        lhs += item;
      }
      std::printf("  %-40s => %-28s conf %.2f lift %.2f\n", lhs.c_str(),
                  rule.rhs.c_str(), rule.confidence, rule.lift);
      if (++shown == 6) break;
    }
  }

  // --- Trend mining over outbreak surveillance feeds. ---
  const std::vector<std::string> countries{"sg", "hk", "cn"};
  // Each case table holds one region, so each yields that region's slope.
  const auto cases = core::OutbreakScenario::MakeCaseTables(countries, 50, 25, 2, 7);
  std::map<std::string, double> slopes;
  for (const auto& table : cases) {
    auto region = core::WarehouseMiner::TrendSlopes(table, "region", "day", "cases");
    if (!region.ok()) return 1;
    slopes.insert(region->begin(), region->end());
  }
  std::printf("\nCase-count trend slopes (cases/day) per region:\n");
  for (const auto& [region, slope] : slopes) {
    std::printf("  %-6s %+7.2f %s\n", region.c_str(), slope,
                slope > 1.0 ? "<-- escalating: investigate" : "");
  }
  return 0;
}
