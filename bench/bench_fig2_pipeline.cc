// Experiment fig2-e2e — Figure 2 as a performance object: the cost of every
// box of the architecture on an integrated clinical query, swept over source
// count and table size. Prints the per-stage breakdown the engine records,
// then micro-benchmarks the full pipeline.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "match/mediated_schema.h"
#include "mediator/result_integrator.h"
#include "perturb/additive_noise.h"
#include "perturb/swapping.h"
#include "reference/dedupref.h"
#include "reference/preserveref.h"
#include "reference/rowref.h"
#include "relational/executor.h"
#include "relational/table_codec.h"
#include "source/preservation.h"

using piye::core::ClinicalScenario;
using piye::core::PrivateIye;

namespace {

std::unique_ptr<PrivateIye> BuildSystem(size_t patients, uint64_t seed) {
  piye::mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  auto system = std::make_unique<PrivateIye>(options);
  auto tables = ClinicalScenario::MakePatientTables(patients, 0.4, seed);
  auto* hospital = system->AddSource("hospital", "patients",
                                     std::move(tables.hospital), 1);
  auto* pharmacy = system->AddSource("pharmacy", "rx", std::move(tables.pharmacy), 2);
  auto* lab = system->AddSource("lab", "tests", std::move(tables.lab), 3);
  ClinicalScenario::ApplyPatientPolicies(hospital);
  ClinicalScenario::ApplyPatientPolicies(pharmacy);
  ClinicalScenario::ApplyPatientPolicies(lab);
  (void)system->Initialize();
  return system;
}

piye::source::PiqlQuery Query() {
  auto q = piye::source::PiqlQuery::Parse(R"(
    <query requester="analyst" purpose="research" maxLoss="0.95">
      <select>patient_id</select><select>dob</select>
    </query>)");
  return *q;
}

void PrintStageBreakdown() {
  std::printf("--- Figure 2 pipeline stage breakdown ---\n");
  std::printf("%-10s", "rows/src");
  const char* stages[] = {"warehouse-lookup", "fragment", "source-execution",
                          "privacy-control", "integrate", "record"};
  for (const char* s : stages) std::printf(" %-18s", s);
  std::printf(" total(us)\n");
  for (size_t patients : {50, 200, 800, 3200}) {
    auto system = BuildSystem(patients, 11);
    auto result = system->Query(Query(), {.allow_warehouse = false});
    if (!result.ok()) {
      std::printf("%-10zu failed: %s\n", patients,
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-10zu", patients);
    double total = 0.0;
    for (const char* stage : stages) {
      double micros = 0.0;
      for (const auto& t : result->timings) {
        if (t.stage == stage) micros = t.micros;
      }
      total += micros;
      std::printf(" %-18.1f", micros);
    }
    std::printf(" %.1f\n", total);
  }
  std::printf("(source-execution dominates and scales with rows; the privacy "
              "stages are near-constant — Figure 2's privacy layers cost little "
              "on top of integration itself)\n\n");
}

void BM_EndToEndQuery(benchmark::State& state) {
  auto system = BuildSystem(static_cast<size_t>(state.range(0)), 13);
  const auto query = Query();
  for (auto _ : state) {
    auto result = system->Query(query, {.allow_warehouse = false});
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows_per_source"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EndToEndQuery)->Arg(50)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_MediatedSchemaGeneration(benchmark::State& state) {
  const size_t patients = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto system = BuildSystem(patients, 17);
    benchmark::DoNotOptimize(system);
  }
}
BENCHMARK(BM_MediatedSchemaGeneration)->Arg(200)->Unit(benchmark::kMillisecond);

// --- columnar vs row-engine hot path -----------------------------------

namespace rel = piye::relational;

/// 3-column aggregation/perturbation workload: 16 groups, a NULL-riddled
/// DOUBLE measure and a dense INT64 measure.
rel::Table HotPathTable(size_t rows) {
  piye::Rng rng(29);
  rel::ColumnVector g(rel::ColumnType::kInt64), v(rel::ColumnType::kDouble),
      w(rel::ColumnType::kInt64);
  g.Reserve(rows);
  v.Reserve(rows);
  w.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    g.AppendInt(static_cast<int64_t>(rng.NextBounded(16)));
    if (rng.NextDouble() < 0.1) {
      v.AppendNull();
    } else {
      v.AppendReal(rng.NextUniform(-100.0, 100.0));
    }
    w.AppendInt(static_cast<int64_t>(rng.NextBounded(100000)));
  }
  rel::Table t;
  t.AddColumn({"g", rel::ColumnType::kInt64}, std::move(g));
  t.AddColumn({"v", rel::ColumnType::kDouble}, std::move(v));
  t.AddColumn({"w", rel::ColumnType::kInt64}, std::move(w));
  return t;
}

std::vector<rel::SelectItem> HotPathAggs() {
  using rel::AggFunc;
  using rel::SelectItem;
  return {SelectItem::Agg(AggFunc::kSum, "v"),
          SelectItem::Agg(AggFunc::kAvg, "v"),
          SelectItem::Agg(AggFunc::kStdDev, "v"),
          SelectItem::Agg(AggFunc::kSum, "w"),
          SelectItem::Agg(AggFunc::kMin, "v"),
          SelectItem::Agg(AggFunc::kMax, "w")};
}

void BM_AggregateColumnar(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  const auto aggs = HotPathAggs();
  for (auto _ : state) {
    auto out = rel::Executor::Aggregate(t, {"g"}, aggs);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AggregateColumnar)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_AggregateRowEngine(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  const auto aggs = HotPathAggs();
  for (auto _ : state) {
    auto out = rel::rowref::Aggregate(t, {"g"}, aggs);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AggregateRowEngine)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_PerturbColumnar(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  const piye::perturb::AdditiveNoise noise(
      piye::perturb::AdditiveNoise::Distribution::kGaussian, 5.0);
  piye::Rng rng(31);
  for (auto _ : state) {
    rel::Table copy = t;
    (void)noise.PerturbColumn(&copy, "v", &rng);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PerturbColumnar)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_PerturbRowEngine(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  piye::Rng rng(31);
  for (auto _ : state) {
    rel::Table copy = t;
    (void)rel::rowref::AddNoiseRowAtATime(&copy, "v", /*gaussian=*/true, 5.0,
                                          &rng);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PerturbRowEngine)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_RankSwapColumnar(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  const piye::perturb::RankSwapper swapper(5.0);
  piye::Rng rng(37);
  for (auto _ : state) {
    rel::Table copy = t;
    (void)swapper.SwapColumn(&copy, "v", &rng);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RankSwapColumnar)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_RankSwapRowEngine(benchmark::State& state) {
  const rel::Table t = HotPathTable(static_cast<size_t>(state.range(0)));
  piye::Rng rng(37);
  for (auto _ : state) {
    rel::Table copy = t;
    (void)rel::rowref::RankSwapRowAtATime(&copy, "v", 5.0, &rng);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RankSwapRowEngine)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Three source answers of ~`rows` rows (patient id, date of birth, a
/// score with NULLs) drawn from one patient pool, so a third of each
/// answer repeats a row another source already returned.
std::vector<piye::mediator::ResultIntegrator::SourceResult> IntegrateInputs(
    size_t rows) {
  piye::Rng rng(41);
  const size_t pool = rows * 3 / 2;
  std::vector<piye::mediator::ResultIntegrator::SourceResult> out;
  for (const char* owner : {"hospital", "pharmacy", "lab"}) {
    rel::ColumnVector id(rel::ColumnType::kString), dob(rel::ColumnType::kString),
        score(rel::ColumnType::kDouble);
    for (size_t i = 0; i < rows; ++i) {
      const size_t p = rng.NextBounded(pool);
      id.AppendStr("P" + std::to_string(100000 + p));
      dob.AppendStr(std::to_string(1940 + p % 60) + "-0" + std::to_string(1 + p % 9) +
                    "-1" + std::to_string(p % 10));
      if (p % 7 == 0) {
        score.AppendNull();
      } else {
        score.AppendReal(static_cast<double>(p % 1000) / 8.0);
      }
    }
    rel::Table t;
    t.AddColumn({"patient_id", rel::ColumnType::kString}, std::move(id));
    t.AddColumn({"dob", rel::ColumnType::kString}, std::move(dob));
    t.AddColumn({"score", rel::ColumnType::kDouble}, std::move(score));
    out.push_back({owner, std::move(t)});
  }
  return out;
}

/// A patient answer as a source holds it before step (7): patient_id and
/// the kRange dob of the patients born in a five-year window (~2k of
/// 25,600), with the disclosure forms the clinical policies give them.
rel::Table PatientAnswer(piye::source::preserveref::Forms* forms) {
  const auto tables = ClinicalScenario::MakePatientTables(25600, 0.4, 1);
  const rel::Table& patients = tables.hospital;
  const size_t id = *patients.schema().IndexOf("patient_id");
  const size_t dob = *patients.schema().IndexOf("dob");
  std::vector<uint32_t> window;
  for (size_t r = 0; r < patients.num_rows(); ++r) {
    const std::string_view d = patients.col(dob).StrAt(r);
    if (d >= "1960-01-01" && d < "1965-01-01") window.push_back(static_cast<uint32_t>(r));
  }
  (*forms)["patient_id"] = piye::policy::DisclosureForm::kExact;
  (*forms)["dob"] = piye::policy::DisclosureForm::kRange;
  return patients.ProjectShared({id, dob}).Gather(window);
}

/// --quick: a CI smoke gate instead of the full benchmark sweep. Runs the
/// aggregation and perturbation hot paths through both engines, the Result
/// Integrator against its display-string reference and the preserve stage
/// against its string-keyed reference, requires identical answers, and
/// fails (exit 1) unless each clears its minimum speedup.
bool TablesIdentical(const rel::Table& a, const rel::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.Cell(r, c).ToString() != b.Cell(r, c).ToString()) return false;
    }
  }
  return true;
}

template <typename Fn>
double BestOfMillis(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

int RunQuickGate() {
  // Aggregation must clear the issue's 5x bar. The perturbation kernels
  // share their sort/RNG core with the row reference by construction
  // (draw-for-draw identical), so only cell access differs — gate them at
  // no-regression-plus-margin rather than pretending the shared algorithmic
  // cost vanishes.
  constexpr double kMinAggSpeedup = 5.0;
  constexpr double kMinSwapSpeedup = 1.2;
  constexpr double kMinIntegrateSpeedup = 3.0;
  constexpr double kMinPreserveSpeedup = 2.0;
  constexpr size_t kRows = 200000;
  const rel::Table t = HotPathTable(kRows);
  const auto aggs = HotPathAggs();

  auto columnar_agg = rel::Executor::Aggregate(t, {"g"}, aggs);
  auto row_agg = rel::rowref::Aggregate(t, {"g"}, aggs);
  if (!columnar_agg.ok() || !row_agg.ok() ||
      !TablesIdentical(*columnar_agg, *row_agg)) {
    std::printf("FAIL: engines disagree on the aggregation result\n");
    return 1;
  }
  const double agg_col_ms = BestOfMillis(5, [&] {
    auto out = rel::Executor::Aggregate(t, {"g"}, aggs);
    benchmark::DoNotOptimize(out);
  });
  const double agg_row_ms = BestOfMillis(5, [&] {
    auto out = rel::rowref::Aggregate(t, {"g"}, aggs);
    benchmark::DoNotOptimize(out);
  });

  // Additive noise: value-identity only. Both engines are dominated by the
  // same RNG draws, so it gates correctness, not speed.
  const piye::perturb::AdditiveNoise noise(
      piye::perturb::AdditiveNoise::Distribution::kGaussian, 5.0);
  {
    rel::Table a = t, b = t;
    piye::Rng rng_a(31), rng_b(31);
    (void)noise.PerturbColumn(&a, "v", &rng_a);
    (void)rel::rowref::AddNoiseRowAtATime(&b, "v", true, 5.0, &rng_b);
    if (!TablesIdentical(a, b)) {
      std::printf("FAIL: engines disagree on the noise-perturbed column\n");
      return 1;
    }
  }

  // Rank swap: the sort-heavy perturbation kernel, timed and gated.
  const piye::perturb::RankSwapper swapper(5.0);
  {
    rel::Table a = t, b = t;
    piye::Rng rng_a(37), rng_b(37);
    (void)swapper.SwapColumn(&a, "v", &rng_a);
    (void)rel::rowref::RankSwapRowAtATime(&b, "v", 5.0, &rng_b);
    if (!TablesIdentical(a, b)) {
      std::printf("FAIL: engines disagree on the rank-swapped column\n");
      return 1;
    }
  }
  const double pert_col_ms = BestOfMillis(5, [&] {
    rel::Table copy = t;
    piye::Rng rng(37);
    (void)swapper.SwapColumn(&copy, "v", &rng);
    benchmark::DoNotOptimize(copy);
  });
  const double pert_row_ms = BestOfMillis(5, [&] {
    rel::Table copy = t;
    piye::Rng rng(37);
    (void)rel::rowref::RankSwapRowAtATime(&copy, "v", 5.0, &rng);
    benchmark::DoNotOptimize(copy);
  });

  // Integration: three ~2k-row answers, whole-row dedup, byte-identical to
  // the display-string reference (whose inputs avoid its two collisions).
  const auto sources = IntegrateInputs(2000);
  std::vector<rel::dedupref::Source> ref_sources;
  for (const auto& s : sources) ref_sources.push_back({s.owner, s.table});
  const piye::match::MediatedSchema mediated;
  const piye::mediator::ResultIntegrator integrator(&mediated);
  {
    auto typed = integrator.Integrate(sources, {});
    auto ref = rel::dedupref::Integrate(ref_sources, {});
    if (!typed.ok() || !ref.ok() ||
        rel::EncodeTable(*typed) != rel::EncodeTable(*ref)) {
      std::printf("FAIL: integrator and reference disagree on the union\n");
      return 1;
    }
  }
  const double int_typed_ms = BestOfMillis(5, [&] {
    auto out = integrator.Integrate(sources, {});
    benchmark::DoNotOptimize(out);
  });
  const double int_ref_ms = BestOfMillis(5, [&] {
    auto out = rel::dedupref::Integrate(ref_sources, {});
    benchmark::DoNotOptimize(out);
  });

  // Preserve: generalization then suppression of a ~2k-row patient answer,
  // byte-identical to the string-keyed reference.
  piye::source::preserveref::Forms forms;
  const rel::Table answer = PatientAnswer(&forms);
  const std::vector<piye::source::Technique> techniques = {
      piye::source::Technique::kGeneralization, piye::source::Technique::kSuppression};
  const piye::source::PreservationModule preservation;
  const size_t k = preservation.config().k;
  piye::Rng unused(1);
  {
    auto typed = preservation.Apply(answer, forms, 1.0, techniques, &unused);
    auto ref = piye::source::preserveref::Apply(answer, forms, techniques, k);
    if (!typed.ok() || !ref.ok() || rel::EncodeTable(*typed) != rel::EncodeTable(*ref)) {
      std::printf("FAIL: preserve kernel and reference disagree on the release\n");
      return 1;
    }
  }
  // Many calls per sample: one call takes tens of microseconds.
  constexpr int kPreserveCalls = 50;
  const double pres_typed_ms = BestOfMillis(5, [&] {
    for (int i = 0; i < kPreserveCalls; ++i) {
      auto out = preservation.Apply(answer, forms, 1.0, techniques, &unused);
      benchmark::DoNotOptimize(out);
    }
  });
  const double pres_ref_ms = BestOfMillis(5, [&] {
    for (int i = 0; i < kPreserveCalls; ++i) {
      auto out = piye::source::preserveref::Apply(answer, forms, techniques, k);
      benchmark::DoNotOptimize(out);
    }
  });

  const double agg_speedup = agg_row_ms / agg_col_ms;
  const double pert_speedup = pert_row_ms / pert_col_ms;
  const double int_speedup = int_ref_ms / int_typed_ms;
  const double pres_speedup = pres_ref_ms / pres_typed_ms;
  std::printf("--quick hot-path gate (%zu rows, value-identical verified)\n",
              kRows);
  std::printf("  aggregate: row %.2f ms, columnar %.2f ms -> %.1fx\n",
              agg_row_ms, agg_col_ms, agg_speedup);
  std::printf("  rank-swap: row %.2f ms, columnar %.2f ms -> %.1fx\n",
              pert_row_ms, pert_col_ms, pert_speedup);
  std::printf("  integrate: reference %.2f ms, typed %.2f ms -> %.1fx\n",
              int_ref_ms, int_typed_ms, int_speedup);
  std::printf("  preserve (%zu rows): reference %.1f us, typed %.1f us -> %.1fx\n",
              answer.num_rows(), pres_ref_ms * 1000.0 / kPreserveCalls,
              pres_typed_ms * 1000.0 / kPreserveCalls, pres_speedup);
  struct Gate {
    const char* name;
    double speedup;
    double bar;
  };
  const Gate gates[] = {{"aggregate", agg_speedup, kMinAggSpeedup},
                        {"rank-swap", pert_speedup, kMinSwapSpeedup},
                        {"integrate", int_speedup, kMinIntegrateSpeedup},
                        {"preserve", pres_speedup, kMinPreserveSpeedup}};
  std::string missed;
  for (const Gate& gate : gates) {
    if (gate.speedup >= gate.bar) continue;
    if (!missed.empty()) missed += ", ";
    missed += gate.name;
  }
  if (!missed.empty()) {
    std::printf("FAIL: hot-path speedup below its bar in %s\n", missed.c_str());
    for (const Gate& gate : gates) {
      std::printf("  %-9s %.2fx (bar %.1fx)%s\n", gate.name, gate.speedup, gate.bar,
                  gate.speedup < gate.bar ? "  MISSED" : "");
    }
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return RunQuickGate();
  }
  PrintStageBreakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
