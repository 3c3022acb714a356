// Experiment abl-rewrite — Section 4's design argument for the Query
// Rewriter: integrate the policy predicate into the query and execute
// (rewrite-then-execute) instead of executing and filtering afterwards
// (execute-then-filter). "By preprocessing the query we shall be able to
// reduce the cost of execution as it will operate on a smaller set of data."
//
// Sweep: table size x policy-predicate selectivity. The gap grows as the
// policy predicate becomes more selective.
//
// Experiment abl-optimizer's second choice rides along: output perturbation
// placed after aggregation (one noisy value per group) vs before it (every
// input row). Both placements are fixed by the source pipeline's shape —
// rewrite, execute, then preserve — and measured here rather than modelled.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "perturb/noise.h"
#include "relational/executor.h"
#include "relational/sql.h"

using namespace piye::relational;
namespace perturb = piye::perturb;

namespace {

Table MakeTable(size_t rows, uint64_t seed) {
  piye::Rng rng(seed);
  Table t(Schema{Column{"id", ColumnType::kInt64},
                 Column{"consent_tier", ColumnType::kInt64},
                 Column{"rate", ColumnType::kDouble},
                 Column{"site", ColumnType::kString}});
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRowUnchecked(Row{
        Value::Int(static_cast<int64_t>(i)),
        Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
        Value::Real(rng.NextUniform(0, 100)),
        Value::Str("site" + std::to_string(rng.NextBounded(8)))});
  }
  return t;
}

// The "privacy work" a released row costs downstream (perturbation, tagging).
double PrivacyWork(const Table& t, const std::string& column) {
  auto xs = t.NumericColumn(column);
  double acc = 0.0;
  if (xs.ok()) {
    for (double x : *xs) acc += x * 1.000001;
  }
  return acc;
}

ExprPtr PolicyPredicate(int selectivity_pct) {
  auto expr = ParseExpression("consent_tier < " + std::to_string(selectivity_pct));
  return *expr;
}

void BM_RewriteThenExecute(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int sel = static_cast<int>(state.range(1));
  Catalog catalog;
  catalog.PutTable("t", MakeTable(rows, 7));
  Executor ex(&catalog);
  auto stmt = ParseSql("SELECT rate FROM t WHERE rate >= 0");
  stmt->where = Expression::And(stmt->where, PolicyPredicate(sel));
  double sink = 0.0;
  for (auto _ : state) {
    auto result = ex.Execute(*stmt);
    sink += PrivacyWork(*result, "rate");
    benchmark::DoNotOptimize(result);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["selectivity_pct"] = sel;
}
BENCHMARK(BM_RewriteThenExecute)
    ->Args({20000, 1})
    ->Args({20000, 10})
    ->Args({20000, 50})
    ->Args({20000, 100})
    ->Args({100000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_ExecuteThenFilter(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int sel = static_cast<int>(state.range(1));
  Catalog catalog;
  catalog.PutTable("t", MakeTable(rows, 7));
  Executor ex(&catalog);
  auto stmt = ParseSql("SELECT rate, consent_tier FROM t WHERE rate >= 0");
  const ExprPtr policy = PolicyPredicate(sel);
  double sink = 0.0;
  for (auto _ : state) {
    auto result = ex.Execute(*stmt);
    // Privacy work runs on the FULL result before the policy filter — the
    // execute-then-filter shape.
    sink += PrivacyWork(*result, "rate");
    auto filtered = Executor::Filter(*result, policy);
    benchmark::DoNotOptimize(filtered);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["selectivity_pct"] = sel;
}
BENCHMARK(BM_ExecuteThenFilter)
    ->Args({20000, 1})
    ->Args({20000, 10})
    ->Args({20000, 50})
    ->Args({20000, 100})
    ->Args({100000, 10})
    ->Unit(benchmark::kMillisecond);

// Rows spread over 12 sites; the perturbation-placement benchmarks group by
// site.
Table MakeSiteTable(size_t rows, uint64_t seed) {
  piye::Rng rng(seed);
  Table t(Schema{Column{"tier", ColumnType::kInt64},
                 Column{"site", ColumnType::kString},
                 Column{"rate", ColumnType::kDouble}});
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRowUnchecked(
        {Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
         Value::Str("s" + std::to_string(rng.NextBounded(12))),
         Value::Real(rng.NextUniform(0, 100))});
  }
  return t;
}

void BM_PerturbAfterAggregate(benchmark::State& state) {
  Catalog catalog;
  catalog.PutTable("t", MakeSiteTable(static_cast<size_t>(state.range(0)), 3));
  Executor ex(&catalog);
  auto stmt = ParseSql("SELECT site, AVG(rate) AS m FROM t GROUP BY site");
  piye::Rng rng(5);
  for (auto _ : state) {
    auto result = ex.Execute(*stmt);
    const perturb::AdditiveNoise noise(perturb::AdditiveNoise::Distribution::kGaussian,
                                       1.0);
    (void)noise.PerturbColumn(&*result, "m", &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PerturbAfterAggregate)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_PerturbBeforeAggregate(benchmark::State& state) {
  Catalog catalog;
  catalog.PutTable("t", MakeSiteTable(static_cast<size_t>(state.range(0)), 3));
  Executor ex(&catalog);
  auto stmt = ParseSql("SELECT site, AVG(rate) AS m FROM t GROUP BY site");
  piye::Rng rng(5);
  for (auto _ : state) {
    Table copy = **catalog.GetTable("t");
    const perturb::AdditiveNoise noise(perturb::AdditiveNoise::Distribution::kGaussian,
                                       1.0);
    (void)noise.PerturbColumn(&copy, "rate", &rng);
    Catalog scratch;
    scratch.PutTable("t", std::move(copy));
    auto result = Executor(&scratch).Execute(*stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PerturbBeforeAggregate)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("abl-rewrite: rewrite-then-execute vs execute-then-filter.\n"
              "Expect the rewrite variant to win, with the gap growing as the\n"
              "policy predicate gets more selective (lower selectivity_pct).\n"
              "abl-optimizer: perturbation after vs before aggregation.\n"
              "Expect after-aggregate to win: it perturbs one value per group.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
