// Experiment abl-anon — k-anonymity as a preservation technique (refs [37],
// [28]): information loss vs k for the Samarati full-domain lattice
// anonymizer and the Mondrian multidimensional partitioner over synthetic
// patient microdata. Expected shape: loss grows with k; Mondrian dominates
// the single-dimension lattice on discernibility at every k. A second table
// puts Mondrian next to what a source actually releases for a linkage-class
// query (its fixed generalization plus suppression), at the same k.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "anonymity/hierarchy.h"
#include "anonymity/kanonymity.h"
#include "common/rng.h"
#include "source/piql.h"
#include "source/query_cluster.h"
#include "source/remote_source.h"

using namespace piye;
using namespace piye::anonymity;

namespace {

/// Uniform ages 18-87 and zips 10000-10499; `skewed` instead draws both
/// as u^3 over the same ranges, so most rows are young and low-zip and the
/// upper ranges are sparse.
relational::Table MakeMicrodata(size_t rows, uint64_t seed, bool skewed = false) {
  Rng rng(seed);
  relational::Table t(relational::Schema{
      relational::Column{"age", relational::ColumnType::kInt64},
      relational::Column{"zip", relational::ColumnType::kInt64},
      relational::Column{"disease", relational::ColumnType::kString}});
  const char* dx[] = {"flu", "diabetes", "cancer", "asthma"};
  const auto draw = [&rng, skewed](uint64_t n) {
    if (!skewed) return static_cast<int64_t>(rng.NextBounded(n));
    const double u = rng.NextDouble();
    return static_cast<int64_t>(u * u * u * static_cast<double>(n));
  };
  for (size_t i = 0; i < rows; ++i) {
    const int64_t age = 18 + draw(70);
    const int64_t zip = 10000 + draw(500);
    t.AppendRowUnchecked({relational::Value::Int(age), relational::Value::Int(zip),
                          relational::Value::Str(dx[rng.NextBounded(4)])});
  }
  return t;
}

std::vector<QuasiIdentifier> LatticeQis() {
  return {{"age", std::make_shared<NumericHierarchy>(
                      0.0, std::vector<double>{5, 10, 25, 50})},
          {"zip", std::make_shared<NumericHierarchy>(
                      0.0, std::vector<double>{25, 100, 250})}};
}

void LossVsK() {
  const relational::Table data = MakeMicrodata(1000, 3);
  std::printf("--- Information loss vs k (1000 rows, QI = {age, zip}) ---\n");
  std::printf("%-6s %-22s %-22s %-14s\n", "k", "samarati discern.",
              "mondrian discern.", "samarati GenILoss");
  for (size_t k : {2, 5, 10, 20, 50}) {
    const KAnonymizer lattice(LatticeQis(), k, /*max_suppression=*/50);
    auto lresult = lattice.Anonymize(data);
    const Mondrian mondrian({"age", "zip"}, k);
    auto mresult = mondrian.Anonymize(data);
    if (!lresult.ok() || !mresult.ok()) continue;
    auto lmetrics =
        ComputeMetrics(lresult->table, {"age", "zip"}, lresult->suppressed_rows);
    auto mmetrics = ComputeMetrics(*mresult, {"age", "zip"});
    std::printf("%-6zu %-22.0f %-22.0f %-14.2f\n", k, lmetrics->discernibility,
                mmetrics->discernibility, lattice.GeneralizationLoss(lresult->levels));
  }
  std::printf("(Mondrian's multidimensional cuts beat full-domain "
              "generalization at every k)\n\n");
}

/// A source holding the microdata plus five exact columns, with age as a
/// kRange and zip as a kGeneralized quasi-identifier.
std::unique_ptr<source::RemoteSource> MakeLinkageSource(const relational::Table& data,
                                                        size_t k) {
  relational::Table table(relational::Schema{
      relational::Column{"patient_id", relational::ColumnType::kString},
      relational::Column{"age", relational::ColumnType::kInt64},
      relational::Column{"zip", relational::ColumnType::kInt64},
      relational::Column{"disease", relational::ColumnType::kString},
      relational::Column{"sex", relational::ColumnType::kString},
      relational::Column{"ward", relational::ColumnType::kString},
      relational::Column{"insurer", relational::ColumnType::kString},
      relational::Column{"outcome", relational::ColumnType::kString}});
  for (size_t r = 0; r < data.num_rows(); ++r) {
    table.AppendRowUnchecked(
        {relational::Value::Str("p" + std::to_string(r)), data.Cell(r, 0),
         data.Cell(r, 1), data.Cell(r, 2), relational::Value::Str(r % 2 ? "F" : "M"),
         relational::Value::Str("w" + std::to_string(r % 5)),
         relational::Value::Str("i" + std::to_string(r % 3)),
         relational::Value::Str("o")});
  }
  auto src = std::make_unique<source::RemoteSource>("hospital", "patients",
                                                    std::move(table), 1);
  source::PreservationModule::Config config;
  config.k = k;
  src->set_preservation_config(config);
  policy::PrivacyPolicy policy("hospital", {});
  for (const auto& col : src->schema().columns()) {
    policy::PolicyRule rule;
    rule.id = col.name + "-rule";
    rule.item = {"*", col.name};
    rule.purposes = {"healthcare"};
    rule.recipients = {"*"};
    rule.form = col.name == "age"   ? policy::DisclosureForm::kRange
                : col.name == "zip" ? policy::DisclosureForm::kGeneralized
                                    : policy::DisclosureForm::kExact;
    rule.max_privacy_loss = 1.0;
    policy.AddRule(rule);
  }
  // Setup on a fresh source: only a duplicate name could fail.
  (void)src->mutable_policies()->AddPolicy(std::move(policy));
  (void)src->mutable_rbac()->AddRole("analyst");
  (void)src->mutable_rbac()->AssignRole("analyst", "analyst");
  (void)src->mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*");
  return src;
}

/// What Technique::kKAnonymity's comment promised (Mondrian) against what a
/// linkage-class release runs (fixed equi-width generalization, then
/// suppression of classes under k), on the same unfiltered 8-column answer.
void ReleaseVsMondrian(bool skewed) {
  const relational::Table data = MakeMicrodata(1000, 3, skewed);
  source::QueryFeatures shape;
  shape.v = {0, 0, 0, 1, 8, 0, 0, 0};
  const source::QueryCluster* cluster = source::ClusterStore::Default().Map(shape);
  std::printf("--- Linkage-class release vs Mondrian (%s microdata, 1000 rows x 8 "
              "columns, QI = {age, zip}, matcher class: %s) ---\n",
              skewed ? "skewed" : "uniform",
              cluster ? source::BreachClassToString(cluster->breach) : "none");
  std::printf("%-4s %-28s %-12s %-10s %-14s\n", "k", "technique", "cells kept",
              "classes", "discernibility");
  const std::vector<std::string> qi = {"age", "zip"};
  for (size_t k : {3, 8}) {
    auto src = MakeLinkageSource(data, k);
    std::string select;
    for (const auto& col : src->schema().columns()) {
      select += "<select>" + col.name + "</select>";
    }
    auto query = source::PiqlQuery::Parse(
        "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"1\">" + select +
        "</query>");
    if (!query.ok()) return;
    auto released = src->ExecuteFragment(*query);
    if (!released.ok()) {
      std::printf("  release refused: %s\n", released.status().ToString().c_str());
      return;
    }
    const relational::Table& product = released->table;
    const size_t suppressed = data.num_rows() - product.num_rows();
    auto pm = ComputeMetrics(product, qi, suppressed);
    auto mondrian = Mondrian(qi, k).Anonymize(src->raw_table_for_testing());
    if (!pm.ok() || !mondrian.ok()) return;
    auto mm = ComputeMetrics(*mondrian, qi);
    if (!mm.ok()) return;
    std::printf("%-4zu %-28s %5zu/%-6zu %-10zu %-14.0f\n", k,
                "generalize+suppress (8 bins)",
                product.num_rows() * product.num_columns(),
                data.num_rows() * product.num_columns(), pm->num_classes,
                pm->discernibility);
    std::printf("%-4zu %-28s %5zu/%-6zu %-10zu %-14.0f\n", k, "Mondrian",
                mondrian->num_rows() * mondrian->num_columns(),
                data.num_rows() * mondrian->num_columns(), mm->num_classes,
                mm->discernibility);
  }
  std::printf("(cells kept = released rows x columns; discernibility = sum of "
              "class sizes squared, plus |table| per suppressed row)\n\n");
}

void LDiversityCheck() {
  const relational::Table data = MakeMicrodata(1000, 3);
  const Mondrian mondrian({"age", "zip"}, 8);
  auto result = mondrian.Anonymize(data);
  if (!result.ok()) return;
  std::printf("--- l-diversity of the k=8 Mondrian release ---\n");
  for (size_t l : {1, 2, 3, 4}) {
    auto diverse = IsLDiverse(*result, {"age", "zip"}, "disease", l);
    std::printf("  %zu-diverse: %s\n", l, diverse.ok() && *diverse ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_SamaratiAnonymize(benchmark::State& state) {
  const relational::Table data =
      MakeMicrodata(static_cast<size_t>(state.range(0)), 3);
  const KAnonymizer anonymizer(LatticeQis(), static_cast<size_t>(state.range(1)), 50);
  for (auto _ : state) {
    auto result = anonymizer.Anonymize(data);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SamaratiAnonymize)
    ->Args({1000, 5})
    ->Args({1000, 20})
    ->Args({4000, 5})
    ->Unit(benchmark::kMillisecond);

void BM_MondrianAnonymize(benchmark::State& state) {
  const relational::Table data =
      MakeMicrodata(static_cast<size_t>(state.range(0)), 3);
  const Mondrian mondrian({"age", "zip"}, static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto result = mondrian.Anonymize(data);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MondrianAnonymize)
    ->Args({1000, 5})
    ->Args({1000, 20})
    ->Args({4000, 5})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  LossVsK();
  ReleaseVsMondrian(/*skewed=*/false);
  ReleaseVsMondrian(/*skewed=*/true);
  LDiversityCheck();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
