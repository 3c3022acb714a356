// Experiment ex2-outbreak — Example 2: disease-outbreak surveillance.
// Compares detection latency under three sharing regimes:
//   full        — raw case rows pooled centrally (no privacy, the warehouse
//                 model the paper says consent costs make impossible),
//   private-iye — aggregate-only sharing through the mediation engine,
//   none        — the affected country withholds its data entirely.
// Sweeps the outbreak growth severity. Then times the daily surveillance
// query with and without warehousing (the "quick response" rationale for the
// hybrid engine).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "core/outbreak.h"
#include "core/private_iye.h"

using piye::core::OutbreakScenario;
using piye::core::PrivateIye;

namespace {

constexpr size_t kDays = 70;
constexpr size_t kOutbreakDay = 35;
constexpr size_t kOutbreakAt = 2;

std::vector<std::string> Countries() { return {"sg", "hk", "cn", "ca"}; }

void ConfigureSource(piye::source::RemoteSource* src, const std::string& owner) {
  piye::policy::PrivacyPolicy policy(owner, {});
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

std::unique_ptr<PrivateIye> BuildSystem(uint64_t seed) {
  piye::mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.99;
  options.max_cumulative_loss = 1e9;
  auto system = std::make_unique<PrivateIye>(options);
  auto tables = OutbreakScenario::MakeCaseTables(Countries(), kDays, kOutbreakDay,
                                                 kOutbreakAt, seed);
  for (size_t c = 0; c < Countries().size(); ++c) {
    auto* src = system->AddSource(Countries()[c], "cases", std::move(tables[c]),
                                  static_cast<uint64_t>(c) + 1);
    ConfigureSource(src, Countries()[c]);
  }
  (void)system->Initialize();
  return system;
}

piye::source::PiqlQuery SurveillanceQuery() {
  return *piye::source::PiqlQuery::Parse(R"(
    <query requester="who" purpose="disease-surveillance" maxLoss="0.95">
      <aggregate func="SUM" attribute="cases"><groupBy>day</groupBy></aggregate>
    </query>)");
}

void DetectionSweep() {
  std::printf("--- Detection day by sharing regime (outbreak starts day %zu) ---\n",
              kOutbreakDay);
  std::printf("%-8s %-10s %-14s %-10s\n", "seed", "full", "private-iye", "none");
  size_t piye_detected = 0, none_detected = 0, runs = 0;
  for (uint64_t seed : {5, 9, 21, 33, 47}) {
    auto tables = OutbreakScenario::MakeCaseTables(Countries(), kDays, kOutbreakDay,
                                                   kOutbreakAt, seed);
    std::vector<double> full(kDays, 0.0), none(kDays, 0.0);
    for (size_t c = 0; c < tables.size(); ++c) {
      for (size_t r = 0; r < tables[c].num_rows(); ++r) {
        const size_t d = static_cast<size_t>(tables[c].Cell(r, 0).AsInt());
        const double cases = static_cast<double>(tables[c].Cell(r, 2).AsInt());
        full[d] += cases;
        if (c != kOutbreakAt) none[d] += cases;
      }
    }
    // The privacy-preserving feed through the engine.
    auto system = BuildSystem(seed);
    auto result = system->Query(SurveillanceQuery(), {.allow_warehouse = false});
    std::vector<double> integrated(kDays, 0.0);
    if (result.ok()) {
      auto day_idx = result->table().schema().IndexOf("day");
      auto sum_idx = result->table().schema().IndexOf("sum_cases");
      if (day_idx.ok() && sum_idx.ok()) {
        const auto& table = result->table();
        for (size_t r = 0; r < table.num_rows(); ++r) {
          integrated[static_cast<size_t>(table.Cell(r, *day_idx).AsInt())] +=
              table.Cell(r, *sum_idx).AsDouble();
        }
      }
    }
    const long d_full = OutbreakScenario::DetectOutbreak(full, 7, 2.0);
    const long d_piye = OutbreakScenario::DetectOutbreak(integrated, 7, 2.0);
    const long d_none = OutbreakScenario::DetectOutbreak(none, 7, 2.0);
    auto fmt = [](long d) { return d < 0 ? std::string("never") : std::to_string(d); };
    std::printf("%-8llu %-10s %-14s %-10s\n", (unsigned long long)seed,
                fmt(d_full).c_str(), fmt(d_piye).c_str(), fmt(d_none).c_str());
    ++runs;
    if (d_piye > 0) ++piye_detected;
    if (d_none > 0) ++none_detected;
  }
  std::printf("privacy-preserving sharing detected %zu/%zu outbreaks; "
              "no-sharing detected %zu/%zu\n\n",
              piye_detected, runs, none_detected, runs);
}

void BM_SurveillanceQuery(benchmark::State& state) {
  const bool warehouse = state.range(0) != 0;
  auto system = BuildSystem(5);
  const auto query = SurveillanceQuery();
  const piye::mediator::QueryOptions options{.allow_warehouse = warehouse};
  (void)system->Query(query, options);  // warm the warehouse
  for (auto _ : state) {
    auto result = system->Query(query, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(warehouse ? "warehoused" : "virtual");
}
BENCHMARK(BM_SurveillanceQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  DetectionSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
