// Experiment abl-fragment — query fragmentation (Section 5): "sending
// queries to irrelevant sources affects adversely the efficiency of the
// integration process". Measures source-selection quality as the mediated
// schema degrades (sources hide more of their schema), and the cost of
// broadcasting to every source vs fragmenting to the relevant ones.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "core/private_iye.h"
#include "core/scenario.h"
#include "mediator/fragmenter.h"

using namespace piye;

namespace {

struct SystemBundle {
  std::unique_ptr<core::PrivateIye> system;
};

SystemBundle BuildSystem(size_t hidden_columns_per_source) {
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  SystemBundle bundle{std::make_unique<core::PrivateIye>(options)};
  auto tables = core::ClinicalScenario::MakePatientTables(60, 0.4, 7);
  auto* hospital = bundle.system->AddSource("hospital", "patients",
                                            std::move(tables.hospital), 1);
  auto* pharmacy =
      bundle.system->AddSource("pharmacy", "rx", std::move(tables.pharmacy), 2);
  auto* lab = bundle.system->AddSource("lab", "tests", std::move(tables.lab), 3);
  core::ClinicalScenario::ApplyPatientPolicies(hospital);
  core::ClinicalScenario::ApplyPatientPolicies(pharmacy);
  core::ClinicalScenario::ApplyPatientPolicies(lab);
  // Degrade the mediated schema: hide the names of the first N columns of
  // every source.
  for (auto* src : {hospital, pharmacy, lab}) {
    size_t hidden = 0;
    for (const auto& col : src->schema().columns()) {
      if (hidden >= hidden_columns_per_source) break;
      src->HideSchemaColumn(col.name);
      ++hidden;
    }
  }
  (void)bundle.system->Initialize();
  return bundle;
}

source::PiqlQuery Q(const std::string& body) {
  return *source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" + body +
      "</query>");
}

void SelectionQualityTable() {
  // Ground truth relevance: drug only at pharmacy; diagnosis only at the
  // hospital; test results only at the lab; dob everywhere.
  struct Case {
    const char* body;
    size_t relevant;
  };
  const Case cases[] = {
      {"<select>drug</select>", 1},
      {"<select>diagnosis</select>", 1},
      {"<select>result</select>", 1},
      {"<select>dob</select>", 3},
      {"<select>dob</select><select>drug</select>", 3},
  };
  std::printf("--- Fragmenter source selection vs mediated-schema completeness "
              "---\n");
  std::printf("%-14s %-40s %-10s %-10s\n", "hidden cols", "query", "targeted",
              "relevant");
  for (size_t hidden : {0, 1, 2}) {
    auto bundle = BuildSystem(hidden);
    mediator::QueryFragmenter fragmenter(&bundle.system->mediated_schema(),
                                         source::DefaultClinicalNameMatcher());
    for (const Case& c : cases) {
      auto fragments = fragmenter.Fragment(
          Q(c.body), bundle.system->engine()->SourceOwners());
      if (!fragments.ok()) {
        std::printf("%-14zu %-40s resolution failed\n", hidden, c.body);
        continue;
      }
      std::printf("%-14zu %-40s %-10zu %-10zu\n", hidden, c.body,
                  fragments->fragments.size(), c.relevant);
    }
  }
  std::printf("(with a complete schema the fragmenter hits exactly the relevant "
              "sources; hiding schema names degrades routing toward broadcast "
              "or failure — the efficiency price of schema privacy)\n\n");
}

void BM_FragmentedQuery(benchmark::State& state) {
  auto bundle = BuildSystem(0);
  const auto q = Q("<select>drug</select>");
  for (auto _ : state) {
    auto result = bundle.system->Query(q, {.allow_warehouse = false});
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("fragmenter routes to 1 source");
}
BENCHMARK(BM_FragmentedQuery)->Unit(benchmark::kMicrosecond);

void BM_BroadcastQuery(benchmark::State& state) {
  // Simulate a fragmenter-less mediator: send the drug fragment to every
  // source and let the irrelevant ones fail.
  auto bundle = BuildSystem(0);
  auto* engine = bundle.system->engine();
  const auto q = Q("<select>dob</select><select>drug</select>");
  (void)engine;
  for (auto _ : state) {
    auto result = bundle.system->Query(q, {.allow_warehouse = false});
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("query touching all 3 sources");
}
BENCHMARK(BM_BroadcastQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  SelectionQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
