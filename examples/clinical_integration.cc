// Example 1 from the paper, end to end: the four HMOs' diabetes-care
// compliance rates are integrated and published as aggregates. A traditional
// integrator leaks — the snooping HMO1 runs its non-linear-programming
// inference and recovers everyone's sensitive rates to within a few points
// (Figure 1(d)). PRIVATE-IYE's privacy control audits the same release
// schedule with the adversary's own machinery and stops it.
//
//   $ ./build/examples/clinical_integration

#include <cstdio>

#include "core/baseline.h"
#include "core/scenario.h"
#include "inference/privacy_loss.h"
#include "inference/snooping_attack.h"
#include "mediator/privacy_control.h"
#include "relational/table.h"

using piye::core::ClinicalScenario;
using piye::relational::Table;
using piye::inference::AttackerKnowledge;
using piye::inference::PublishedAggregates;
using piye::inference::SnoopingAttack;

namespace {

void PrintIntervals(const PublishedAggregates& published,
                    const piye::inference::AttackResult& result,
                    const std::vector<std::vector<double>>& truth) {
  std::printf("%-13s", "");
  for (const auto& p : published.parties) std::printf(" %-16s", p.c_str());
  std::printf("\n");
  for (size_t m = 0; m < published.measures.size(); ++m) {
    std::printf("%-13s", published.measures[m].c_str());
    for (size_t p = 0; p < published.parties.size(); ++p) {
      const auto& iv = result.intervals[m][p];
      std::printf(" [%5.1f;%5.1f]   ", iv.lo, iv.hi);
    }
    std::printf("\n%-13s", "  (truth)");
    for (size_t p = 0; p < published.parties.size(); ++p) {
      std::printf("  %6.1f          ", truth[m][p]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // Ground-truth rates consistent with the paper's published aggregates;
  // HMO1's own values are exactly the paper's (75 / 56 / 43).
  auto rates = ClinicalScenario::GroundTruthRates();
  if (!rates.ok()) {
    std::fprintf(stderr, "%s\n", rates.status().ToString().c_str());
    return 1;
  }

  // ------------------------------------------------------------------
  // World 1: a traditional integrator (access control only).
  // ------------------------------------------------------------------
  // It is handed each HMO's raw compliance table: one row per measure.
  PublishedAggregates published = PublishedAggregates::Figure1();
  std::vector<Table> raw;
  for (size_t p = 0; p < 4; ++p) {
    auto table = ClinicalScenario::HmoComplianceTable(p, *rates);
    if (!table.ok()) return 1;
    raw.push_back(std::move(*table));
  }
  auto published_rows =
      piye::core::NaiveIntegrator::PublishGroupedAggregates(raw, "test", "rate");
  if (!published_rows.ok()) return 1;

  std::printf("=== Published by the traditional integrator (Figure 1(a)) ===\n");
  std::printf("%-13s %8s %8s\n", "Test", "Mean", "Sigma");
  for (const auto& row : *published_rows) {
    std::printf("%-13s %7.1f%% %7.1f%%\n", row.group.c_str(), row.mean, row.stddev);
  }

  AttackerKnowledge attacker = AttackerKnowledge::Figure1();
  for (size_t m = 0; m < 3; ++m) {
    published.measure_mean[m] = (*published_rows)[m].mean;
    published.measure_sigma[m] = (*published_rows)[m].stddev;
    attacker.own_values[m] = (*rates)[m][0];
  }
  for (size_t p = 0; p < 4; ++p) {
    double mean = 0.0;
    for (size_t m = 0; m < 3; ++m) mean += (*rates)[m][p];
    published.party_mean[p] = mean / 3.0;
  }
  published.tolerance = 0.005;

  SnoopingAttack attack(/*seed=*/42);
  auto breach = attack.Run(published, attacker);
  if (!breach.ok()) return 1;
  std::printf("\n=== What snooping HMO1 infers via NLP (Figure 1(d)) ===\n");
  PrintIntervals(published, *breach, *rates);
  std::printf("Mean interval width over unknown cells: %.1f points "
              "(prior width: 100)\n",
              breach->MeanUnknownWidth(0));

  // ------------------------------------------------------------------
  // World 2: PRIVATE-IYE's privacy control audits the release schedule.
  // ------------------------------------------------------------------
  std::printf("\n=== The same schedule through PRIVATE-IYE privacy control ===\n");
  piye::mediator::PrivacyControl control(/*max_combined_loss=*/1.0,
                                         /*max_interval_loss=*/0.85);
  std::vector<std::vector<size_t>> cell(3, std::vector<size_t>(4));
  for (size_t m = 0; m < 3; ++m) {
    for (size_t p = 0; p < 4; ++p) {
      cell[m][p] = control.RegisterSensitiveCell(
          published.measures[m] + "/" + published.parties[p], 0, 100, (*rates)[m][p]);
    }
  }
  auto report = [&](const char* what, const piye::Result<double>& r) {
    if (r.ok()) {
      std::printf("  release %-28s -> APPROVED (%.1f)\n", what, *r);
    } else {
      std::printf("  release %-28s -> REFUSED: %s\n", what,
                  r.status().message().c_str());
    }
  };
  for (size_t m = 0; m < 3; ++m) {
    report((published.measures[m] + " mean").c_str(),
           control.ApproveMeanDisclosure(cell[m], 0.05));
  }
  for (size_t m = 0; m < 3; ++m) {
    report((published.measures[m] + " sigma").c_str(),
           control.ApproveStdDevDisclosure(cell[m], 0.05));
  }
  for (size_t p = 0; p < 4; ++p) {
    std::vector<size_t> party_cells{cell[0][p], cell[1][p], cell[2][p]};
    report((published.parties[p] + " mean").c_str(),
           control.ApproveMeanDisclosure(party_cells, 0.05));
  }
  auto losses = control.CurrentLosses();
  if (losses.ok()) {
    double worst = 0.0;
    for (double l : *losses) worst = std::max(worst, l);
    std::printf("Worst interval loss over all sensitive cells after the audited "
                "releases: %.2f (threshold 0.85)\n",
                worst);
  }
  std::printf("%zu releases approved, %zu refused.\n",
              control.disclosures_committed(),
              control.disclosures_refused());
  return 0;
}
