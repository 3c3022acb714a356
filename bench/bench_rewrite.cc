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
//
// Experiment abl-scan: the scan choice inside a source, measured per
// RemoteSource::ExecuteFragment call on a 25,600-row patient table. The
// path is chosen by the WHERE's shape alone: `dob >= a AND dob < b` is
// answered through the sorted index of dob, and the same window written as
// `NOT (dob < a OR dob >= b)` is not eligible, so it is the full-scan
// baseline. A second table holds aggregate fragments at |C| = k and
// |C| = n - k, whose cost must not follow |C|.
//
// Experiment perf-preserve: step (7) on the same row windows' answers
// (patient_id plus the kRange dob), split into generalize / class ids /
// gather, for the typed kernels and the string-keyed reference they
// replaced (tests/reference/preserveref).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/scenario.h"
#include "perturb/additive_noise.h"
#include "reference/preserveref.h"
#include "reference/sql_tables.h"
#include "relational/dedup.h"
#include "relational/executor.h"
#include "relational/sql.h"
#include "relational/table_codec.h"
#include "source/preservation.h"
#include "source/remote_source.h"

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
  const sqlref::Tables tables{{"t", MakeTable(rows, 7)}};
  auto stmt = ParseSql("SELECT rate FROM t WHERE rate >= 0");
  stmt->where = Expression::And(stmt->where, PolicyPredicate(sel));
  double sink = 0.0;
  for (auto _ : state) {
    auto result = sqlref::Execute(tables, *stmt);
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
  const sqlref::Tables tables{{"t", MakeTable(rows, 7)}};
  auto stmt = ParseSql("SELECT rate, consent_tier FROM t WHERE rate >= 0");
  const ExprPtr policy = PolicyPredicate(sel);
  double sink = 0.0;
  for (auto _ : state) {
    auto result = sqlref::Execute(tables, *stmt);
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
  const sqlref::Tables tables{
      {"t", MakeSiteTable(static_cast<size_t>(state.range(0)), 3)}};
  auto stmt = ParseSql("SELECT site, AVG(rate) AS m FROM t GROUP BY site");
  piye::Rng rng(5);
  for (auto _ : state) {
    auto result = sqlref::Execute(tables, *stmt);
    const perturb::AdditiveNoise noise(perturb::AdditiveNoise::Distribution::kGaussian,
                                       1.0);
    (void)noise.PerturbColumn(&*result, "m", &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PerturbAfterAggregate)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_PerturbBeforeAggregate(benchmark::State& state) {
  const Table base = MakeSiteTable(static_cast<size_t>(state.range(0)), 3);
  auto stmt = ParseSql("SELECT site, AVG(rate) AS m FROM t GROUP BY site");
  piye::Rng rng(5);
  for (auto _ : state) {
    Table copy = base;
    const perturb::AdditiveNoise noise(perturb::AdditiveNoise::Distribution::kGaussian,
                                       1.0);
    (void)noise.PerturbColumn(&copy, "rate", &rng);
    const sqlref::Tables scratch{{"t", std::move(copy)}};
    auto result = sqlref::Execute(scratch, *stmt);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PerturbBeforeAggregate)->Arg(50000)->Unit(benchmark::kMillisecond);

// --- abl-scan ---

constexpr int kScanCalls = 200;

struct CallTimes {
  double p25 = 0, p50 = 0, p75 = 0;  // microseconds
  size_t released_rows = 0;
  std::string released;              // encoded table, or the error
  uint64_t index_scans = 0;          // over all calls
  uint64_t rows_examined = 0;        // per call
};

piye::source::PiqlQuery ScanQuery(bool aggregate, const std::string& where) {
  const std::string xml =
      std::string("<query requester=\"bench\" purpose=\"healthcare\" maxLoss=\"1.0\">") +
      (aggregate ? "<aggregate func=\"COUNT\" attribute=\"patient_id\"/>"
                 : "<select>patient_id</select><select>dob</select>") +
      "<where>" + where + "</where></query>";
  return *piye::source::PiqlQuery::Parse(xml);
}

CallTimes TimeFragment(const piye::source::RemoteSource& src,
                       const piye::source::PiqlQuery& query) {
  CallTimes out;
  const auto first = src.ExecuteFragment(query);  // builds the index, if any
  out.released = first.ok() ? EncodeTable(first->table) : first.status().ToString();
  out.released_rows = first.ok() ? first->table.num_rows() : 0;
  const auto before = src.scan_stats();
  std::vector<double> us;
  for (int i = 0; i < kScanCalls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = src.ExecuteFragment(query);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r);
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const auto after = src.scan_stats();
  out.index_scans = after.index_scans - before.index_scans;
  out.rows_examined = (after.rows_examined - before.rows_examined) / kScanCalls;
  std::sort(us.begin(), us.end());
  out.p25 = us[us.size() / 4];
  out.p50 = us[us.size() / 2];
  out.p75 = us[us.size() * 3 / 4];
  return out;
}

void PrintScanChoice() {
  auto tables = piye::core::ClinicalScenario::MakePatientTables(25600, 0.3, 1);
  const piye::relational::Table raw = tables.hospital;  // the bench's own copy
  piye::source::RemoteSource src("hospital", "patients", std::move(tables.hospital), 4);
  piye::core::ClinicalScenario::ApplyPatientPolicies(&src);
  (void)src.mutable_rbac()->AssignRole("*", "analyst");
  const size_t n = src.num_rows();

  std::printf("abl-scan: per-fragment source time, %d calls each (n = %zu rows)\n",
              kScanCalls, n);
  std::printf("%-9s %-9s %-6s %9s %10s %10s %10s %9s\n", "shape", "window", "path",
              "released", "examined", "p25 us", "p50 us", "p75 us");
  struct Window {
    const char* name;
    const char* lo;
    const char* hi;
  };
  const Window windows[] = {{"14 days", "1960-03-01", "1960-03-15"},
                            {"2 years", "1960-01-01", "1962-01-01"},
                            {"5 years", "1960-01-01", "1965-01-01"}};
  bool same = true;
  for (bool aggregate : {false, true}) {
    for (const Window& w : windows) {
      const std::string lo = std::string("'") + w.lo + "'";
      const std::string hi = std::string("'") + w.hi + "'";
      const CallTimes index = TimeFragment(
          src, ScanQuery(aggregate, "dob &gt;= " + lo + " AND dob &lt; " + hi));
      const CallTimes full = TimeFragment(
          src, ScanQuery(aggregate, "NOT (dob &lt; " + lo + " OR dob &gt;= " + hi + ")"));
      same &= index.released_rows == full.released_rows;
      for (const auto* t : {&index, &full}) {
        std::printf("%-9s %-9s %-6s %9zu %10llu %10.1f %10.1f %10.1f\n",
                    aggregate ? "COUNT" : "rows", w.name,
                    t->index_scans == kScanCalls ? "index" : "full", t->released_rows,
                    static_cast<unsigned long long>(t->rows_examined), t->p25, t->p50,
                    t->p75);
      }
    }
  }
  std::printf("index and full scan release the same row counts: %s\n\n",
              same ? "yes" : "NO");

  // |C| = k and |C| = n - k: `dob < x` holds exactly the rows below x, so x
  // is the first dob after exactly k (n - k) smaller ones; both query sets
  // pass the query-set restriction, so both answers are released.
  const size_t k = piye::source::PreservationModule::Config{}.k;
  const auto& dob = raw.col(2);
  std::vector<std::string> sorted;
  for (size_t r = 0; r < n; ++r) sorted.emplace_back(dob.StrAt(r));
  std::sort(sorted.begin(), sorted.end());
  std::printf("aggregate fragments: COUNT(patient_id) WHERE dob < x, %d calls each\n",
              kScanCalls);
  std::printf("%-6s %6s %-6s %9s %10s %10s %10s %10s\n", "|C|", "", "path", "released",
              "examined", "p25 us", "p50 us", "p75 us");
  for (size_t target : {k, n - k}) {
    // Step inward past duplicates until exactly `c` rows are below x.
    size_t c = target;
    while (c > 0 && c < n && sorted[c - 1] == sorted[c]) c += target == k ? 1 : -1;
    const CallTimes t =
        TimeFragment(src, ScanQuery(true, "dob &lt; '" + sorted[c] + "'"));
    std::printf("%-6s %6zu %-6s %9zu %10llu %10.1f %10.1f %10.1f\n",
                target == k ? "k" : "n - k", c,
                t.index_scans == kScanCalls ? "index" : "full", t.released_rows,
                static_cast<unsigned long long>(t.rows_examined), t.p25, t.p50, t.p75);
  }
  std::printf("\n");
}

// --- perf-preserve ---

/// Median microseconds of one call of `fn` over kScanCalls calls.
template <typename Fn>
double MedianMicros(Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < kScanCalls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

void PrintPreserveSplit() {
  namespace source = piye::source;
  auto tables = piye::core::ClinicalScenario::MakePatientTables(25600, 0.3, 1);
  const Table& patients = tables.hospital;
  const size_t id = *patients.schema().IndexOf("patient_id");
  const size_t dob = *patients.schema().IndexOf("dob");
  const source::preserveref::Forms forms = {
      {"patient_id", piye::policy::DisclosureForm::kExact},
      {"dob", piye::policy::DisclosureForm::kRange}};
  const std::vector<source::Technique> techniques = {source::Technique::kGeneralization,
                                                     source::Technique::kSuppression};
  const source::PreservationModule module;
  const size_t k = module.config().k;
  piye::Rng unused(1);

  std::printf("perf-preserve: step (7) per call on a row window's answer "
              "(patient_id, kRange dob), median of %d calls, us\n", kScanCalls);
  std::printf("%-9s %6s %-9s %10s %10s %8s %8s  %s\n", "window", "rows", "path",
              "generalize", "class ids", "gather", "total", "same bytes");
  struct Window {
    const char* name;
    const char* lo;
    const char* hi;
  };
  const Window windows[] = {{"14 days", "1960-03-01", "1960-03-15"},
                            {"2 years", "1960-01-01", "1962-01-01"},
                            {"5 years", "1960-01-01", "1965-01-01"}};
  for (const Window& w : windows) {
    // The answer in table order, as the scan hands it to step (7).
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < patients.num_rows(); ++r) {
      const std::string_view d = patients.col(dob).StrAt(r);
      if (d >= w.lo && d < w.hi) rows.push_back(static_cast<uint32_t>(r));
    }
    const Table answer = patients.ProjectShared({id, dob}).Gather(rows);
    Table generalized = answer;
    source::preserveref::Generalize(&generalized, forms);
    const bool same =
        EncodeTable(*module.Apply(answer, forms, 1.0, techniques, &unused)) ==
        EncodeTable(*source::preserveref::Apply(answer, forms, techniques, k));

    // Reference: per-row labels, EncodeCell keys in an unordered_map, and a
    // gather whether or not a row is dropped.
    const std::vector<uint32_t> ref_class = source::preserveref::ClassIds(generalized, forms);
    std::vector<size_t> size(ref_class.size() + 1, 0);
    for (uint32_t c : ref_class) ++size[c];
    std::vector<uint32_t> kept;
    for (size_t r = 0; r < ref_class.size(); ++r) {
      if (size[ref_class[r]] >= k) kept.push_back(static_cast<uint32_t>(r));
    }
    const bool drops = kept.size() < answer.num_rows();
    const double ref_gen = MedianMicros([&] {
      Table t = answer;
      source::preserveref::Generalize(&t, forms);
      benchmark::DoNotOptimize(t);
    });
    const double ref_ids = MedianMicros([&] {
      auto ids = source::preserveref::ClassIds(generalized, forms);
      benchmark::DoNotOptimize(ids);
    });
    const double gather = MedianMicros([&] {
      Table t = generalized.Gather(kept);
      benchmark::DoNotOptimize(t);
    });
    const double ref_total = MedianMicros([&] {
      auto t = source::preserveref::Apply(answer, forms, techniques, k);
      benchmark::DoNotOptimize(t);
    });

    // Typed: the module's generalization, the typed class-id kernel it
    // suppresses with, and a gather only when some class is under k.
    const double typed_gen = MedianMicros([&] {
      auto t = module.Apply(answer, forms, 1.0, {source::Technique::kGeneralization},
                            &unused);
      benchmark::DoNotOptimize(t);
    });
    const KeyBlock qi{{&generalized.col(1)}, generalized.num_rows()};
    const double typed_ids = MedianMicros([&] {
      std::vector<uint32_t> ids;
      auto first = KeyClasses({qi}, KeyEquality::kCompare, &ids);
      benchmark::DoNotOptimize(first);
    });
    const double typed_total = MedianMicros([&] {
      auto t = module.Apply(answer, forms, 1.0, techniques, &unused);
      benchmark::DoNotOptimize(t);
    });

    std::printf("%-9s %6zu %-9s %10.1f %10.1f %8.1f %8.1f  %s\n", w.name,
                answer.num_rows(), "reference", ref_gen, ref_ids, gather, ref_total,
                same ? "yes" : "NO");
    std::printf("%-9s %6zu %-9s %10.1f %10.1f %8.1f %8.1f\n", w.name, answer.num_rows(),
                "typed", typed_gen, typed_ids, drops ? gather : 0.0, typed_total);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("abl-rewrite: rewrite-then-execute vs execute-then-filter.\n"
              "Expect the rewrite variant to win, with the gap growing as the\n"
              "policy predicate gets more selective (lower selectivity_pct).\n"
              "abl-optimizer: perturbation after vs before aggregation.\n"
              "Expect after-aggregate to win: it perturbs one value per group.\n"
              "abl-scan: expect the index to beat the full scan on row fragments\n"
              "by more the narrower the window, and the two aggregate rows to\n"
              "cost the same.\n"
              "perf-preserve: expect the typed path to skip the gather when no\n"
              "class is under k, and to beat the reference on the other two.\n\n");
  PrintScanChoice();
  PrintPreserveSplit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
