#include <gtest/gtest.h>

#include <cmath>

#include "relational/sql.h"
#include "statdb/aggregate_query.h"
#include "statdb/audit.h"
#include "statdb/restriction.h"
#include "statdb/sampling.h"

namespace piye {
namespace statdb {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

Table SalaryFixture() {
  Table t(Schema{Column{"id", ColumnType::kString},
                 Column{"dept", ColumnType::kString},
                 Column{"salary", ColumnType::kDouble}});
  const char* depts[] = {"icu", "icu", "icu", "lab", "lab", "lab", "er", "er"};
  const double salaries[] = {90, 80, 100, 60, 70, 65, 85, 95};
  for (int i = 0; i < 8; ++i) {
    (void)t.AppendRow(Row{Value::Str("E" + std::to_string(i)), Value::Str(depts[i]),
                          Value::Real(salaries[i])});
  }
  return t;
}

AggregateQuery MakeQuery(relational::AggFunc func, const std::string& where) {
  AggregateQuery q;
  q.func = func;
  q.column = "salary";
  if (!where.empty()) {
    auto e = relational::ParseExpression(where);
    EXPECT_TRUE(e.ok());
    q.predicate = *e;
  }
  return q;
}

TEST(AggregateQueryTest, QuerySetAndEvaluate) {
  const Table t = SalaryFixture();
  const AggregateQuery q = MakeQuery(relational::AggFunc::kSum, "dept = 'icu'");
  auto rows = QuerySet(q, t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  auto v = EvaluateAggregate(q, t, *rows);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 270.0);
}

TEST(AggregateQueryTest, AllAggregates) {
  const Table t = SalaryFixture();
  const std::vector<size_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(*EvaluateAggregate(MakeQuery(relational::AggFunc::kCount, ""), t, all),
                   8.0);
  EXPECT_DOUBLE_EQ(*EvaluateAggregate(MakeQuery(relational::AggFunc::kAvg, ""), t, all),
                   80.625);
  EXPECT_DOUBLE_EQ(*EvaluateAggregate(MakeQuery(relational::AggFunc::kMin, ""), t, all),
                   60.0);
  EXPECT_DOUBLE_EQ(*EvaluateAggregate(MakeQuery(relational::AggFunc::kMax, ""), t, all),
                   100.0);
}

TEST(AggregateQueryTest, EmptySetErrorsForAvg) {
  const Table t = SalaryFixture();
  EXPECT_FALSE(EvaluateAggregate(MakeQuery(relational::AggFunc::kAvg, ""), t, {}).ok());
  EXPECT_TRUE(EvaluateAggregate(MakeQuery(relational::AggFunc::kCount, ""), t, {}).ok());
}

TEST(QuerySetSizeControlTest, BlocksSmallAndLargeSets) {
  const Table t = SalaryFixture();
  QuerySetSizeControl control(3);
  // |C| = 3: allowed.
  EXPECT_TRUE(control.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'icu'"), t).ok());
  // |C| = 2 < k: refused.
  auto small = control.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'er'"), t);
  EXPECT_TRUE(small.status().IsPrivacyViolation());
  // |C| = 8 > N - k = 5: the complement attack is refused too.
  auto all = control.Answer(MakeQuery(relational::AggFunc::kSum, ""), t);
  EXPECT_TRUE(all.status().IsPrivacyViolation());
}

TEST(QuerySetSizeControlTest, TableSmallerThanKNamesAnEmptyRange) {
  // N = 8 < k = 10: every query set is refused, and the refusal names the
  // admissible range's upper end as 0 — not N - k wrapped around 2^64.
  const Table t = SalaryFixture();
  QuerySetSizeControl control(10);
  auto refused = control.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'icu'"), t);
  ASSERT_TRUE(refused.status().IsPrivacyViolation());
  EXPECT_EQ(refused.status().message(), "query set size 3 outside [10, 0]");
  // The rule on its own: the same decision and text without a table.
  EXPECT_EQ(control.Check(3, 8).message(), "query set size 3 outside [10, 0]");
  EXPECT_TRUE(QuerySetSizeControl(3).Check(3, 8).ok());
  EXPECT_TRUE(QuerySetSizeControl(3).Check(6, 8).IsPrivacyViolation());
}

TEST(OverlapControlTest, EnforcesPairwiseOverlap) {
  const Table t = SalaryFixture();
  OverlapControl control(/*min_size=*/3, /*max_overlap=*/1);
  ASSERT_TRUE(control.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'icu'"), t).ok());
  // lab ∩ icu = 0 rows: fine.
  ASSERT_TRUE(control.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'lab'"), t).ok());
  // salary >= 80 = {0,1,2,6,7} overlaps icu = {0,1,2} in 3 > 1 rows: refused.
  auto r = control.Answer(MakeQuery(relational::AggFunc::kSum, "salary >= 80"), t);
  EXPECT_TRUE(r.status().IsPrivacyViolation());
  EXPECT_EQ(control.history_size(), 2u);
}

TEST(OverlapControlTest, CompromiseLowerBound) {
  OverlapControl control(9, 2);
  EXPECT_EQ(control.CompromiseLowerBound(), 5u);  // 1 + (9-1)/2
}

TEST(SumAuditorTest, RefusesExactCompromise) {
  const Table t = SalaryFixture();
  SumAuditor auditor(t.num_rows());
  // SUM over icu (3 rows): ok.
  ASSERT_TRUE(auditor.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'icu'"), t).ok());
  // SUM over icu minus employee E0 = {E1,E2}: would expose E0 = difference.
  auto r = auditor.Answer(
      MakeQuery(relational::AggFunc::kSum, "dept = 'icu' AND id <> 'E0'"), t);
  EXPECT_TRUE(r.status().IsPrivacyViolation());
  EXPECT_EQ(auditor.queries_answered(), 1u);
  EXPECT_EQ(auditor.queries_refused(), 1u);
  EXPECT_TRUE(auditor.DeterminableRecords().empty());
}

TEST(SumAuditorTest, RefusesSingletonQuery) {
  const Table t = SalaryFixture();
  SumAuditor auditor(t.num_rows());
  auto r = auditor.Answer(MakeQuery(relational::AggFunc::kSum, "id = 'E3'"), t);
  EXPECT_TRUE(r.status().IsPrivacyViolation());
}

TEST(SumAuditorTest, DisjointSumsAreSafe) {
  const Table t = SalaryFixture();
  SumAuditor auditor(t.num_rows());
  EXPECT_TRUE(auditor.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'icu'"), t).ok());
  EXPECT_TRUE(auditor.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'lab'"), t).ok());
  EXPECT_TRUE(auditor.Answer(MakeQuery(relational::AggFunc::kSum, "dept = 'er'"), t).ok());
  EXPECT_EQ(auditor.queries_answered(), 3u);
}

TEST(SumAuditorTest, OnlySumQueriesAccepted) {
  const Table t = SalaryFixture();
  SumAuditor auditor(t.num_rows());
  EXPECT_FALSE(auditor.Answer(MakeQuery(relational::AggFunc::kAvg, ""), t).ok());
}

TEST(EchelonBasisTest, SpanMembership) {
  EchelonBasis basis(3);
  EXPECT_TRUE(basis.Insert({1, 1, 0}));
  EXPECT_TRUE(basis.Insert({0, 1, 1}));
  EXPECT_FALSE(basis.Insert({1, 2, 1}));  // sum of the first two
  EXPECT_TRUE(basis.InSpan({1, 0, -1}));  // difference
  EXPECT_FALSE(basis.InSpan({1, 0, 0}));
  EXPECT_EQ(basis.rank(), 2u);
}

TEST(RandomSampleQueriesTest, DeterministicPerQuery) {
  const Table t = SalaryFixture();
  RandomSampleQueries rsq("id", 0.7, 99);
  const AggregateQuery q = MakeQuery(relational::AggFunc::kSum, "dept = 'icu'");
  auto a = rsq.Answer(q, t);
  auto b = rsq.Answer(q, t);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);  // re-asking the same query gains nothing
}

TEST(RandomSampleQueriesTest, DifferentFormulasSampleDifferently) {
  const Table t = SalaryFixture();
  RandomSampleQueries rsq("id", 0.5, 99);
  const AggregateQuery q1 = MakeQuery(relational::AggFunc::kSum, "salary > 0");
  const AggregateQuery q2 = MakeQuery(relational::AggFunc::kSum, "salary >= 0");
  // Logically identical query sets, but inclusion depends on the formula.
  int differs = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "E" + std::to_string(i);
    if (rsq.Includes(key, q1) != rsq.Includes(key, q2)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(RandomSampleQueriesTest, UnbiasedAtScale) {
  // Large synthetic table: SUM estimate should land near the true sum.
  Table t(Schema{Column{"id", ColumnType::kString}, Column{"v", ColumnType::kDouble}});
  double truth = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double v = (i % 7) + 1.0;
    truth += v;
    (void)t.AppendRow(Row{Value::Str("K" + std::to_string(i)), Value::Real(v)});
  }
  RandomSampleQueries rsq("id", 0.5, 1234);
  AggregateQuery q;
  q.func = relational::AggFunc::kSum;
  q.column = "v";
  auto est = rsq.Answer(q, t);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, truth, 0.05 * truth);
}

TEST(RandomSampleQueriesTest, RejectsBadRate) {
  const Table t = SalaryFixture();
  RandomSampleQueries rsq("id", 0.0, 1);
  EXPECT_FALSE(rsq.Answer(MakeQuery(relational::AggFunc::kSum, ""), t).ok());
}

}  // namespace
}  // namespace statdb
}  // namespace piye
