#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "relational/column.h"
#include "relational/dedup.h"
#include "relational/executor.h"
#include "reference/rowref.h"
#include "reference/sql_tables.h"
#include "relational/expression.h"
#include "relational/schema.h"
#include "relational/sql.h"
#include "relational/table.h"
#include "relational/table_codec.h"
#include "relational/value.h"
#include "relational/xml_bridge.h"
#include "xml/parser.h"

namespace piye {
namespace relational {
namespace {

Table PatientsFixture() {
  Table t(Schema{Column{"id", ColumnType::kInt64},
                 Column{"name", ColumnType::kString},
                 Column{"age", ColumnType::kInt64},
                 Column{"rate", ColumnType::kDouble},
                 Column{"city", ColumnType::kString}});
  auto add = [&t](int64_t id, const char* name, int64_t age, double rate,
                  const char* city) {
    ASSERT_TRUE(t.AppendRow(Row{Value::Int(id), Value::Str(name), Value::Int(age),
                                Value::Real(rate), Value::Str(city)})
                    .ok());
  };
  add(1, "ann", 34, 0.7, "oslo");
  add(2, "bob", 45, 0.5, "oslo");
  add(3, "cal", 61, 0.9, "bern");
  add(4, "dee", 29, 0.4, "bern");
  add(5, "eli", 45, 0.6, "rome");
  return t;
}

// --- Value ---

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Int(5).AsDouble(), 5.0);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_TRUE(Value::Boolean(true).AsBool());
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Real(1.5)), 0);
  EXPECT_GT(Value::Real(2.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, NullSortsFirstAndSqlEqualsFalse) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_TRUE(Value::Null() == Value::Null());  // exact equality for grouping
}

TEST(ValueTest, ParseByType) {
  ASSERT_TRUE(Value::Parse("42", ColumnType::kInt64).ok());
  EXPECT_EQ(Value::Parse("42", ColumnType::kInt64)->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Parse("2.5", ColumnType::kDouble)->AsDouble(), 2.5);
  EXPECT_TRUE(Value::Parse("true", ColumnType::kBool)->AsBool());
  EXPECT_TRUE(Value::Parse("NULL", ColumnType::kInt64)->is_null());
  EXPECT_FALSE(Value::Parse("abc", ColumnType::kInt64).ok());
}

TEST(ValueTest, ParseRefusesIntegersOutsideInt64) {
  EXPECT_EQ(Value::Parse("9223372036854775807", ColumnType::kInt64)->AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Value::Parse("-9223372036854775808", ColumnType::kInt64)->AsInt(),
            std::numeric_limits<int64_t>::min());
  for (const char* text : {"9223372036854775808", "99999999999999999999",
                           "-9223372036854775809"}) {
    auto v = Value::Parse(text, ColumnType::kInt64);
    ASSERT_FALSE(v.ok()) << text << " parsed as " << v->ToString();
    EXPECT_TRUE(v.status().IsParseError()) << text;
  }
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Str("x").ToString(), "'x'");
  EXPECT_EQ(Value::Str("x").ToDisplayString(), "x");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

// --- Schema / Table ---

TEST(SchemaTest, IndexOf) {
  Schema s{Column{"a", ColumnType::kInt64}, Column{"b", ColumnType::kString}};
  ASSERT_TRUE(s.IndexOf("b").ok());
  EXPECT_EQ(*s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("z").ok());
}

TEST(TableTest, AppendRowValidatesArityAndTypes) {
  Table t(Schema{Column{"a", ColumnType::kInt64}});
  EXPECT_FALSE(t.AppendRow(Row{Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(t.AppendRow(Row{Value::Str("x")}).ok());
  EXPECT_TRUE(t.AppendRow(Row{Value::Null()}).ok());
  EXPECT_TRUE(t.AppendRow(Row{Value::Int(1)}).ok());
}

TEST(TableTest, IntWidensToDouble) {
  Table t(Schema{Column{"d", ColumnType::kDouble}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(3)}).ok());
  EXPECT_TRUE(t.Cell(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.Cell(0, 0).AsDouble(), 3.0);
}

TEST(TableTest, NumericColumnSkipsNulls) {
  Table t(Schema{Column{"d", ColumnType::kDouble}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Real(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Null()}).ok());
  auto xs = t.NumericColumn("d");
  ASSERT_TRUE(xs.ok());
  EXPECT_EQ(xs->size(), 1u);
}

// --- Expressions ---

TEST(ExpressionTest, ArithmeticAndComparison) {
  const Table t = PatientsFixture();
  auto expr = ParseExpression("age * 2 + 1");
  ASSERT_TRUE(expr.ok());
  auto v = (*expr)->Evaluate(rowref::RowAt(t, 0), t.schema());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 69);
}

TEST(ExpressionTest, DivisionByZeroIsNull) {
  auto expr = ParseExpression("1 / 0");
  ASSERT_TRUE(expr.ok());
  auto v = (*expr)->Evaluate({}, Schema{});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(ExpressionTest, LikeMatching) {
  EXPECT_TRUE(SqlLikeMatch("hello", "h%o"));
  EXPECT_TRUE(SqlLikeMatch("hello", "_ello"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%"));
  EXPECT_FALSE(SqlLikeMatch("hello", "h_o"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("abc", ""));
}

TEST(ExpressionTest, InList) {
  const Table t = PatientsFixture();
  auto expr = ParseExpression("city IN ('oslo', 'rome')");
  ASSERT_TRUE(expr.ok());
  int matches = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto b = (*expr)->EvaluatesTrue(rowref::RowAt(t, r), t.schema());
    ASSERT_TRUE(b.ok());
    matches += *b ? 1 : 0;
  }
  EXPECT_EQ(matches, 3);
}

TEST(ExpressionTest, NullComparisonsAreFalse) {
  Table t(Schema{Column{"a", ColumnType::kInt64}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Null()}).ok());
  auto expr = ParseExpression("a = 0 OR a <> 0");
  ASSERT_TRUE(expr.ok());
  auto b = (*expr)->EvaluatesTrue(rowref::RowAt(t, 0), t.schema());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(*b);
}

TEST(ExpressionTest, CollectColumnsAndNodeCount) {
  auto expr = ParseExpression("a = 1 AND (b > 2 OR c LIKE 'x%')");
  ASSERT_TRUE(expr.ok());
  std::set<std::string> cols;
  (*expr)->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b", "c"}));
  EXPECT_GT((*expr)->NodeCount(), 5u);
}

// --- SQL parsing ---

TEST(SqlParserTest, FullSelect) {
  auto stmt = ParseSql(
      "SELECT city, AVG(rate) AS m, COUNT(*) FROM patients "
      "WHERE age >= 30 GROUP BY city");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->table, "patients");
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[1].alias, "m");
  EXPECT_TRUE(stmt->HasAggregates());
  EXPECT_EQ(stmt->group_by.size(), 1u);
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSql("select a from t where a = 1 group by a").ok());
}

TEST(SqlParserTest, RefusesWhatPiqlCannotSay) {
  // A source query is a transformed PIQL fragment: every output column is
  // named, and there is no ordering or row limit.
  for (const char* sql : {"SELECT * FROM t", "SELECT a, * FROM t",
                          "SELECT a FROM t ORDER BY a", "SELECT a FROM t LIMIT 1",
                          "SELECT a FROM t WHERE a = 1 ORDER BY a DESC",
                          "SELECT a, COUNT(*) FROM t GROUP BY a LIMIT 10"}) {
    auto stmt = ParseSql(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_TRUE(stmt.status().IsParseError()) << sql;
  }
  auto count = ParseSql("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count->items.size(), 1u);
  EXPECT_EQ(count->items[0].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(count->items[0].column, "");
  EXPECT_EQ(count->items[0].alias, "n");
}

TEST(SqlParserTest, StringEscapes) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a = 'O''Brien'");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->rhs()->literal().AsString(), "O'Brien");
  // Rendered back as SQL, the quote is doubled again.
  EXPECT_EQ(stmt->where->ToString(), "(a = 'O''Brien')");
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT a").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t garbage").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(*) FROM t").ok());
}

TEST(SqlParserTest, RefusesIntegerLiteralsOutsideInt64) {
  auto max = ParseExpression("a = 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ((*max)->rhs()->literal().AsInt(), std::numeric_limits<int64_t>::max());
  // Clamping would compare against INT64_MAX instead of the number written.
  for (const char* text : {"a = 99999999999999999999", "a = -99999999999999999999",
                           "a IN (1, 9223372036854775808)"}) {
    auto e = ParseExpression(text);
    ASSERT_FALSE(e.ok()) << text << " parsed as " << (*e)->ToString();
    EXPECT_TRUE(e.status().IsParseError()) << text;
    EXPECT_NE(e.status().message().find("out of range"), std::string::npos)
        << e.status().message();
  }
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a > 18446744073709551616").ok());
}

TEST(SqlParserTest, PrecedenceAndAssociativity) {
  const std::pair<const char*, const char*> cases[] = {
      {"a OR b AND c", "(a OR (b AND c))"},
      {"a - b - c", "((a - b) - c)"},
      {"a + b * c = d / e - f", "((a + (b * c)) = ((d / e) - f))"},
      {"NOT a = 1 AND NOT NOT b < 2 OR c", "(((NOT (a = 1)) AND (NOT (NOT (b < 2)))) OR c)"},
      {"a LIKE 'x%' AND b IN (1, 2)", "((a LIKE 'x%') AND (b IN (1, 2)))"},
      {"-a * (b + 1)", "((0 - a) * (b + 1))"},
  };
  for (const auto& [text, tree] : cases) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    EXPECT_EQ((*e)->ToString(), tree) << text;
  }
  // Comparisons do not chain, and NOT is a column name inside a comparison.
  for (const char* text : {"a = b = c", "a < b LIKE c", "a IN (1) = b", "NOT a = 1 = 2",
                           "x AND a = 1 = 2", "a = NOT b"}) {
    auto e = ParseExpression(text);
    ASSERT_FALSE(e.ok()) << text;
    EXPECT_TRUE(e.status().IsParseError()) << text;
    EXPECT_NE(e.status().message().find("unexpected trailing tokens"), std::string::npos)
        << text << ": " << e.status().message();
  }
}

TEST(SqlParserTest, ParenthesisNestingBound) {
  auto nested = [](size_t depth) {
    return std::string(depth, '(') + "a = 1" + std::string(depth, ')');
  };
  auto at_bound = ParseExpression(nested(kMaxExpressionNodes));
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ((*at_bound)->ToString(), "(a = 1)");
  auto over = ParseExpression(nested(kMaxExpressionNodes + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsParseError());
  EXPECT_EQ(over.status().message(), "SQL parse error: parentheses nest deeper than 256");
}

// --- Executor ---

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { tables_["patients"] = PatientsFixture(); }
  sqlref::Tables tables_;
};

TEST_F(ExecutorTest, FilterProject) {
  auto r = sqlref::Query(tables_, "SELECT name FROM patients WHERE age >= 40");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->Cell(0, 0).AsString(), "bob");
  EXPECT_EQ(r->Cell(1, 0).AsString(), "cal");
  EXPECT_EQ(r->Cell(2, 0).AsString(), "eli");
}

TEST_F(ExecutorTest, GlobalAggregates) {
  auto r = sqlref::Query(tables_,
                         "SELECT COUNT(*), AVG(age), MIN(rate), MAX(rate), STDDEV(age) "
                         "FROM patients");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->Cell(0, 0).AsInt(), 5);
  EXPECT_NEAR(r->Cell(0, 1).AsDouble(), 42.8, 1e-9);
  EXPECT_DOUBLE_EQ(r->Cell(0, 2).AsDouble(), 0.4);
  EXPECT_DOUBLE_EQ(r->Cell(0, 3).AsDouble(), 0.9);
}

TEST_F(ExecutorTest, GroupBy) {
  auto r = sqlref::Query(tables_,
                         "SELECT city, COUNT(*) AS n FROM patients GROUP BY city");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);
  // Groups come out in first-occurrence order: oslo, bern, rome.
  EXPECT_EQ(r->Cell(1, 0).AsString(), "bern");
  EXPECT_EQ(r->Cell(1, 1).AsInt(), 2);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  auto r = sqlref::Query(tables_, "SELECT COUNT(*) FROM patients WHERE age > 1000");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->Cell(0, 0).AsInt(), 0);
}

TEST_F(ExecutorTest, BareColumnNeedsGroupBy) {
  EXPECT_FALSE(sqlref::Query(tables_, "SELECT city, AVG(rate) FROM patients").ok());
}

TEST_F(ExecutorTest, AliasRenamesOutput) {
  auto r = sqlref::Query(tables_, "SELECT name AS patientName FROM patients");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().column(0).name, "patientName");
}

TEST_F(ExecutorTest, MissingTable) {
  EXPECT_FALSE(sqlref::Query(tables_, "SELECT name FROM nope").ok());
}

// --- Binary table codec ---

/// Decodes a whole buffer; leftover bytes count as a failure.
Result<Table> Decode(const std::string& bytes) {
  persist::Decoder dec(bytes);
  Result<Table> table = DecodeTable(&dec);
  if (table.ok() && !dec.exhausted()) return Status::ParseError("trailing bytes");
  return table;
}

/// Schema plus every cell (bit-exact for doubles, NULL-aware).
void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.col(c).IsNull(r), b.col(c).IsNull(r)) << c << "," << r;
      if (a.col(c).IsNull(r)) continue;
      std::string ka, kb;
      a.col(c).EncodeCell(r, &ka);
      b.col(c).EncodeCell(r, &kb);
      EXPECT_EQ(ka, kb) << c << "," << r;
    }
  }
}

TEST(TableCodecTest, RoundTrip) {
  Table t = PatientsFixture();
  auto back = Decode(EncodeTable(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(t, *back);
  EXPECT_EQ(back->Cell(2, 1).AsString(), "cal");
  EXPECT_DOUBLE_EQ(back->Cell(2, 3).AsDouble(), 0.9);
  // Deterministic: the bytes are a digest of the table.
  EXPECT_EQ(EncodeTable(*back), EncodeTable(t));
}

TEST(TableCodecTest, NullsAndEveryTypeSurvive) {
  Table t(Schema{Column{"i", ColumnType::kInt64}, Column{"d", ColumnType::kDouble},
                 Column{"s", ColumnType::kString}, Column{"b", ColumnType::kBool}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Null(), Value::Real(-0.0), Value::Str(""),
                              Value::Boolean(false)})
                  .ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(INT64_MIN), Value::Null(), Value::Str("  "),
                              Value::Null()})
                  .ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(INT64_MAX), Value::Real(1e300),
                              Value::Null(), Value::Boolean(true)})
                  .ok());
  auto back = Decode(EncodeTable(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(t, *back);
  EXPECT_TRUE(std::signbit(back->Cell(0, 1).AsDouble()));
  EXPECT_EQ(back->Cell(1, 2).AsString(), "  ");
  EXPECT_EQ(back->Cell(0, 2).AsString(), "");
  // An empty table round-trips too.
  auto empty = Decode(EncodeTable(Table{}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_columns(), 0u);
}

TEST(TableCodecTest, DoubleRoundTripIsExact) {
  Table t(Schema{Column{"x", ColumnType::kDouble}});
  const double values[] = {0.1, 1.0 / 3.0, 83.07, 1e-17, 12345678.90123,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  for (double v : values) {
    ASSERT_TRUE(t.AppendRow(Row{Value::Real(v)}).ok());
  }
  auto back = Decode(EncodeTable(t));
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(back->col(0).RealAt(i), t.col(0).RealAt(i)) << i;
  }
}

TEST(TableCodecTest, AnyColumnNameSurvivesIncludingDuplicates) {
  // Join outputs repeat names, and source columns need not be identifiers:
  // each column keeps its own name and its own values.
  Table t;
  ColumnVector a(ColumnType::kInt64), b(ColumnType::kInt64), c(ColumnType::kString);
  a.AppendInt(1);
  b.AppendInt(2);
  c.AppendStr("<x&y>");
  t.AddColumn({"id", ColumnType::kInt64}, std::move(a));
  t.AddColumn({"id", ColumnType::kInt64}, std::move(b));
  t.AddColumn({"first visit / rate%", ColumnType::kString}, std::move(c));
  auto back = Decode(EncodeTable(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTable(t, *back);
  EXPECT_EQ(back->col(0).IntAt(0), 1);
  EXPECT_EQ(back->col(1).IntAt(0), 2);
  EXPECT_EQ(back->schema().column(2).name, "first visit / rate%");
}

TEST(TableCodecTest, RejectsMalformedBytes) {
  Table one(Schema{Column{"b", ColumnType::kBool}});
  ASSERT_TRUE(one.AppendRow(Row{Value::Boolean(true)}).ok());
  const std::string good = EncodeTable(one);
  // Layout: rows(8) cols(8) name(8+1) type(1) bitmap(8+1) cell(1).
  ASSERT_EQ(good.size(), 36u);
  auto expect_parse_error = [](const std::string& bytes, const char* what) {
    auto decoded = Decode(bytes);
    EXPECT_TRUE(decoded.status().IsParseError())
        << what << ": " << decoded.status().ToString();
  };
  for (size_t cut = 0; cut < good.size(); ++cut) {
    expect_parse_error(good.substr(0, cut), "truncated");
  }
  std::string bad_type = good;
  bad_type[25] = 9;
  expect_parse_error(bad_type, "type tag");
  std::string padding = good;
  padding[34] = 0x03;  // bit 1 is past the single row
  expect_parse_error(padding, "padding bits");
  std::string bad_bool = good;
  bad_bool[35] = 2;
  expect_parse_error(bad_bool, "bool");
  std::string huge_rows = good;
  huge_rows[7] = 0x7f;  // bitmap length no longer matches the row count
  expect_parse_error(huge_rows, "row count");
  std::string huge_cols = good;
  huge_cols[15] = 0x7f;  // column count beyond what the payload can hold
  expect_parse_error(huge_cols, "column count");
  persist::Encoder rows_only;
  rows_only.PutU64(3);
  rows_only.PutU64(0);
  expect_parse_error(rows_only.Take(), "rows without columns");
}

}  // namespace
}  // namespace relational
}  // namespace piye

namespace piye {
namespace relational {
namespace {

// --- Hierarchical-store ingestion (TableFromXmlRecords) ---

TEST(XmlRecordsTest, InfersSchemaAndTypes) {
  auto doc = xml::Parse(R"(
    <patients>
      <patient><pid>P1</pid><age>34</age><score>1.5</score></patient>
      <patient><pid>P2</pid><age>45</age><score>2</score></patient>
    </patients>)");
  ASSERT_TRUE(doc.ok());
  auto table = TableFromXmlRecords(doc->root());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  ASSERT_EQ(table->schema().num_columns(), 3u);
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kString);  // pid
  EXPECT_EQ(table->schema().column(1).type, ColumnType::kInt64);   // age
  EXPECT_EQ(table->schema().column(2).type, ColumnType::kDouble);  // score (widened)
  EXPECT_DOUBLE_EQ(table->Cell(1, 2).AsDouble(), 2.0);
}

TEST(XmlRecordsTest, MissingFieldsBecomeNull) {
  auto doc = xml::Parse(R"(
    <r>
      <rec><a>1</a><b>x</b></rec>
      <rec><a>2</a></rec>
      <rec><b>y</b><c>3.5</c></rec>
    </r>)");
  ASSERT_TRUE(doc.ok());
  auto table = TableFromXmlRecords(doc->root());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().num_columns(), 3u);
  EXPECT_TRUE(table->Cell(1, 1).is_null());  // rec 2 lacks b
  EXPECT_TRUE(table->Cell(2, 0).is_null());  // rec 3 lacks a
}

TEST(XmlRecordsTest, MixedTypesWidenToString) {
  auto doc = xml::Parse(R"(
    <r><rec><v>12</v></rec><rec><v>twelve</v></rec></r>)");
  ASSERT_TRUE(doc.ok());
  auto table = TableFromXmlRecords(doc->root());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kString);
  EXPECT_EQ(table->Cell(0, 0).AsString(), "12");
}

TEST(XmlRecordsTest, IntegerOutsideInt64IsTypedDouble) {
  auto doc = xml::Parse(R"(
    <r><rec><v>99999999999999999999</v></rec><rec><v>5</v></rec></r>)");
  ASSERT_TRUE(doc.ok());
  auto table = TableFromXmlRecords(doc->root());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->schema().column(0).type, ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(table->Cell(0, 0).AsDouble(), 1e20);
  EXPECT_DOUBLE_EQ(table->Cell(1, 0).AsDouble(), 5.0);
}

TEST(XmlRecordsTest, EmptyRootGivesEmptyTable) {
  auto doc = xml::Parse("<r/>");
  ASSERT_TRUE(doc.ok());
  auto table = TableFromXmlRecords(doc->root());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->schema().num_columns(), 0u);
}

// --- ColumnVector (columnar storage) ---

TEST(ColumnVectorTest, TypedAppendAndNullBitmap) {
  ColumnVector c(ColumnType::kInt64);
  c.AppendInt(7);
  c.AppendNull();
  c.AppendInt(-3);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_EQ(c.CountValid(), 2u);
  EXPECT_EQ(c.IntAt(0), 7);
  EXPECT_EQ(c.IntAt(1), 0);  // NULL slot holds the zero payload
  EXPECT_EQ(c.ValueAt(1).ToString(), "NULL");
  EXPECT_EQ(c.ValueAt(2).AsInt(), -3);
}

TEST(ColumnVectorTest, StringArenaAndGatherCompaction) {
  ColumnVector c(ColumnType::kString);
  c.AppendStr("alpha");
  c.AppendNull();
  c.AppendStr("beta");
  c.AppendStr("a-much-longer-value");
  const size_t all_bytes = c.ApproxBytes();
  const uint32_t sel[] = {2, 0};
  ColumnVector g = c.Gather(sel, 2);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.StrAt(0), "beta");
  EXPECT_EQ(g.StrAt(1), "alpha");
  EXPECT_LT(g.ApproxBytes(), all_bytes);  // the arena holds only selected bytes
}

TEST(ColumnVectorTest, AppendValueCoercion) {
  ColumnVector d(ColumnType::kDouble);
  d.AppendValue(Value::Int(4));        // widens
  d.AppendValue(Value::Str("nope"));   // mismatch -> NULL
  d.AppendValue(Value::Null());
  d.AppendValue(Value::Real(2.5));
  EXPECT_DOUBLE_EQ(d.RealAt(0), 4.0);
  EXPECT_TRUE(d.IsNull(1));
  EXPECT_TRUE(d.IsNull(2));
  EXPECT_DOUBLE_EQ(d.RealAt(3), 2.5);
}

TEST(ColumnVectorTest, EncodeCellMatchesCompareEquality) {
  // The canonical key encoding must equate exactly what Value::Compare
  // equates: int 2 == real 2.0, -0.0 == 0.0, NULL == NULL — and nothing else.
  ColumnVector i(ColumnType::kInt64);
  i.AppendInt(2);
  ColumnVector d(ColumnType::kDouble);
  d.AppendReal(2.0);
  d.AppendReal(-0.0);
  d.AppendReal(0.0);
  d.AppendReal(2.5);
  d.AppendNull();
  std::string int2, real2, neg0, pos0, real25, null_key;
  i.EncodeCell(0, &int2);
  d.EncodeCell(0, &real2);
  d.EncodeCell(1, &neg0);
  d.EncodeCell(2, &pos0);
  d.EncodeCell(3, &real25);
  d.EncodeCell(4, &null_key);
  EXPECT_EQ(int2, real2);
  EXPECT_EQ(neg0, pos0);
  EXPECT_NE(real2, real25);
  EXPECT_NE(null_key, pos0);
}

TEST(FirstOccurrencesTest, TypedEqualityRules) {
  // Pairs that the key rules keep apart (INT64 above 2^53, -0.0 vs 0.0,
  // NaNs of opposite sign, NULL vs a value) and pairs they merge (NaN
  // payloads of one sign, NULL vs an absent column).
  constexpr int64_t kBig = int64_t{1} << 53;
  ColumnVector i(ColumnType::kInt64), d(ColumnType::kDouble);
  const uint64_t nan_bits = 0x7ff8000000000001ULL;
  double other_nan = 0.0;
  std::memcpy(&other_nan, &nan_bits, sizeof(other_nan));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t v : {kBig, kBig + 1, kBig, int64_t{0}, int64_t{0}, int64_t{0},
                    int64_t{0}, int64_t{0}}) {
    i.AppendInt(v);
  }
  for (double v : {1.0, 1.0, 1.0, 0.0, -0.0, nan, other_nan, -nan}) d.AppendReal(v);
  i.AppendNull();
  d.AppendNull();
  const KeyBlock first{{&i, &d}, i.size()};
  // A second block lacking the double column: its cells read as NULL.
  ColumnVector tail(ColumnType::kInt64);
  tail.AppendNull();
  tail.AppendInt(0);
  const KeyBlock second{{&tail, nullptr}, tail.size()};
  EXPECT_EQ(FirstOccurrences({first, second}),
            (std::vector<uint32_t>{0, 1, 3, 4, 5, 7, 8, 10}));
  // No key columns: one key for every row.
  EXPECT_EQ(FirstOccurrences({KeyBlock{{}, 3}, KeyBlock{{}, 2}}),
            (std::vector<uint32_t>{0}));
  EXPECT_TRUE(FirstOccurrences({KeyBlock{{}, 0}}).empty());
}

TEST(KeyClassesTest, CompareEqualityDrawsTheEncodeCellClasses) {
  // The rows of TypedEqualityRules under Value::Compare's equality: INT64s
  // above 2^53 that share an AsDouble merge, and so do -0.0 and 0.0; NaNs
  // stay apart unless bit for bit equal; NULL still equals only NULL.
  constexpr int64_t kBig = int64_t{1} << 53;
  ColumnVector i(ColumnType::kInt64), d(ColumnType::kDouble);
  const uint64_t nan_bits = 0x7ff8000000000001ULL;
  double other_nan = 0.0;
  std::memcpy(&other_nan, &nan_bits, sizeof(other_nan));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t v : {kBig, kBig + 1, kBig, int64_t{0}, int64_t{0}, int64_t{0},
                    int64_t{0}, int64_t{0}}) {
    i.AppendInt(v);
  }
  for (double v : {1.0, 1.0, 1.0, 0.0, -0.0, nan, other_nan, -nan}) d.AppendReal(v);
  i.AppendNull();
  d.AppendNull();
  ColumnVector tail(ColumnType::kInt64);
  tail.AppendNull();
  tail.AppendInt(0);
  std::vector<uint32_t> row_class;
  EXPECT_EQ(KeyClasses({KeyBlock{{&i, &d}, i.size()}, KeyBlock{{&tail, nullptr}, 2}},
                       KeyEquality::kCompare, &row_class),
            (std::vector<uint32_t>{0, 3, 5, 6, 7, 8, 10}));
  EXPECT_EQ(row_class, (std::vector<uint32_t>{0, 0, 0, 1, 1, 2, 3, 4, 5, 5, 6}));
  // Each row's class is the one its EncodeCell key names.
  std::map<std::string, uint32_t> by_key;
  for (size_t r = 0; r < i.size(); ++r) {
    std::string key;
    i.EncodeCell(r, &key);
    d.EncodeCell(r, &key);
    EXPECT_EQ(by_key.try_emplace(key, row_class[r]).first->second, row_class[r]) << r;
  }
  EXPECT_EQ(by_key.size(), 6u);

  // An INT64 equals the DOUBLE it converts to only under kCompare.
  ColumnVector two_int(ColumnType::kInt64), two_real(ColumnType::kDouble);
  two_int.AppendInt(2);
  two_real.AppendReal(2.0);
  const std::vector<KeyBlock> mixed = {KeyBlock{{&two_int}, 1}, KeyBlock{{&two_real}, 1}};
  EXPECT_EQ(KeyClasses(mixed, KeyEquality::kCompare, nullptr),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(FirstOccurrences(mixed), (std::vector<uint32_t>{0, 1}));

  // Keys whose hashes collide (two loads of "wxyz" against one, the length
  // folded into the top bits) stay apart, run or no run.
  ColumnVector s(ColumnType::kString);
  for (const char* v : {"wxyz", "wxyzwxy\x1a", "wxyz", "wxyz"}) s.AppendStr(v);
  EXPECT_EQ(KeyClasses({KeyBlock{{&s}, s.size()}}, KeyEquality::kCompare, &row_class),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(row_class, (std::vector<uint32_t>{0, 1, 0, 0}));
}

TEST(ColumnVectorTest, PrefixesCutAndMarkLongCells) {
  ColumnVector col(ColumnType::kString);
  for (const char* s : {"1974-02-06", "", "ab", "abc", "abcd"}) col.AppendStr(s);
  col.AppendNull();
  col.AppendStr(std::string("x\0yz", 4));
  const ColumnVector cut = col.Prefixes(3, '*');
  ASSERT_EQ(cut.size(), col.size());
  const std::vector<std::string> want = {"197*", "", "ab", "abc", "abc*", "",
                                         std::string("x\0y*", 4)};
  for (size_t r = 0; r < cut.size(); ++r) {
    EXPECT_EQ(cut.IsNull(r), r == 5) << r;
    EXPECT_EQ(cut.StrAt(r), want[r]) << r;
  }
}

TEST(TableColumnarTest, ReplaceColumnKeepsNameAndOtherHoldersBuffers) {
  Table t;
  ColumnVector ints(ColumnType::kInt64);
  ints.AppendInt(7);
  ints.AppendNull();
  t.AddColumn({"a", ColumnType::kInt64}, std::move(ints));
  const Table before = t;
  ColumnVector labels(ColumnType::kString);
  labels.AppendStr("[0,8)");
  labels.AppendNull();
  t.ReplaceColumn(0, std::move(labels));
  EXPECT_EQ(t.schema().column(0).name, "a");
  EXPECT_EQ(t.schema().column(0).type, ColumnType::kString);
  EXPECT_EQ(t.Cell(0, 0).AsString(), "[0,8)");
  EXPECT_TRUE(t.Cell(1, 0).is_null());
  EXPECT_EQ(before.schema().column(0).type, ColumnType::kInt64);
  EXPECT_EQ(before.Cell(0, 0).AsInt(), 7);
}

TEST(TableColumnarTest, ProjectSharedSharesBuffersUntilMutation) {
  Table t = PatientsFixture();
  Table view = t.ProjectShared({0, 2});
  ASSERT_EQ(view.num_columns(), 2u);
  EXPECT_EQ(view.num_rows(), t.num_rows());
  // Shared projection costs columns, not cells.
  EXPECT_LT(view.ApproxBytes(), t.ApproxBytes());
  // Copy-on-write: mutating the view leaves the base untouched.
  view.MutableColumn(0)->mutable_ints()[0] = 999;
  EXPECT_EQ(view.Cell(0, 0).AsInt(), 999);
  EXPECT_EQ(t.Cell(0, 0).AsInt(), 1);
}

TEST(TableColumnarTest, AddColumnPadsWithNulls) {
  Table t = PatientsFixture();
  ColumnVector extra(ColumnType::kInt64);
  extra.AppendInt(42);  // shorter than the table
  t.AddColumn({"extra", ColumnType::kInt64}, std::move(extra));
  ASSERT_EQ(t.num_columns(), 6u);
  EXPECT_EQ(t.Cell(0, 5).AsInt(), 42);
  for (size_t r = 1; r < t.num_rows(); ++r) EXPECT_TRUE(t.Cell(r, 5).is_null());
}

TEST(TableColumnarTest, ApproxBytesCountsColumnarFootprint) {
  // Row-major storage paid a full Value variant (32+ bytes) per cell; the
  // columnar footprint of an INT64 column must be close to 8 bytes/cell.
  Table t(Schema{Column{"x", ColumnType::kInt64}});
  for (int64_t i = 0; i < 1024; ++i) {
    t.AppendRowUnchecked(Row{Value::Int(i)});
  }
  const size_t per_row = t.ApproxBytes() / t.num_rows();
  EXPECT_LT(per_row, sizeof(Value)) << "per-entry footprint should beat a "
                                       "row-major Value cell";
}

// --- aggregate bugfix regressions ---

TEST(AggregateRegressionTest, StdDevStableWhenMeanDwarfsSpread) {
  // mean ~1e9, stddev ~1: the old sum-of-squares formula cancels
  // catastrophically (sum_sq/n and mean^2 agree in ~18 digits); Welford
  // accumulation keeps full precision.
  Table t(Schema{Column{"x", ColumnType::kDouble}});
  for (int i = -2; i <= 2; ++i) {
    ASSERT_TRUE(t.AppendRow(Row{Value::Real(1e9 + static_cast<double>(i))}).ok());
  }
  auto out = Executor::Aggregate(t, {}, {SelectItem::Agg(AggFunc::kStdDev, "x")});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Population stddev of {-2,-1,0,1,2} is sqrt(2).
  EXPECT_NEAR(out->Cell(0, 0).AsDouble(), std::sqrt(2.0), 1e-6);
}

TEST(AggregateRegressionTest, Int64SumExactAbove2Pow53) {
  // 2^53 + 1 + 2 is not representable as a double sum ((2^53)+1 == 2^53 in
  // binary64); the exact int64 accumulator must keep every unit.
  const int64_t big = int64_t{1} << 53;
  Table t(Schema{Column{"x", ColumnType::kInt64}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(big)}).ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(1)}).ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(2)}).ok());
  auto out = Executor::Aggregate(t, {}, {SelectItem::Agg(AggFunc::kSum, "x"),
                                         SelectItem::Agg(AggFunc::kAvg, "x")});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->schema().column(0).type, ColumnType::kInt64);
  EXPECT_EQ(out->Cell(0, 0).AsInt(), big + 3);
  EXPECT_DOUBLE_EQ(out->Cell(0, 1).AsDouble(),
                   static_cast<double>(big + 3) / 3.0);
}

TEST(AggregateRegressionTest, Int64SumOverflowWidensToDouble) {
  const int64_t huge = std::numeric_limits<int64_t>::max();
  Table t(Schema{Column{"x", ColumnType::kInt64}});
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(huge)}).ok());
  ASSERT_TRUE(t.AppendRow(Row{Value::Int(huge)}).ok());
  auto out = Executor::Aggregate(t, {}, {SelectItem::Agg(AggFunc::kSum, "x")});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->schema().column(0).type, ColumnType::kDouble);
  EXPECT_NEAR(out->Cell(0, 0).AsDouble(), 2.0 * static_cast<double>(huge),
              1e4);
}

// --- differential harness: vectorized engine vs row-engine reference ---

Table RandomTable(Rng* rng, size_t num_rows, double null_density) {
  Table t(Schema{Column{"i", ColumnType::kInt64}, Column{"d", ColumnType::kDouble},
                 Column{"s", ColumnType::kString}, Column{"b", ColumnType::kBool},
                 Column{"g", ColumnType::kInt64}});
  static const char* kWords[] = {"oslo", "bern", "rome", "", "a%b", "x_y"};
  for (size_t r = 0; r < num_rows; ++r) {
    auto maybe = [&](Value v) {
      return rng->NextDouble() < null_density ? Value::Null() : std::move(v);
    };
    Row row;
    row.push_back(maybe(Value::Int(static_cast<int64_t>(rng->NextBounded(200)) - 100)));
    row.push_back(maybe(Value::Real(rng->NextUniform(-50.0, 50.0))));
    row.push_back(maybe(Value::Str(kWords[rng->NextBounded(6)])));
    row.push_back(maybe(Value::Boolean(rng->NextBounded(2) == 1)));
    row.push_back(maybe(Value::Int(static_cast<int64_t>(rng->NextBounded(4)))));
    t.AppendRowUnchecked(row);
  }
  return t;
}

void ExpectSameTable(const Result<Table>& vec, const Result<Table>& ref,
                     const std::string& what) {
  ASSERT_EQ(vec.ok(), ref.ok())
      << what << ": " << (vec.ok() ? ref.status() : vec.status()).ToString();
  if (!vec.ok()) return;
  ASSERT_EQ(vec->schema().ToString(), ref->schema().ToString()) << what;
  ASSERT_EQ(vec->num_rows(), ref->num_rows()) << what;
  for (size_t r = 0; r < vec->num_rows(); ++r) {
    for (size_t c = 0; c < vec->num_columns(); ++c) {
      // ToString renders doubles with shortest-round-trip precision, so
      // distinct bit patterns render distinctly.
      ASSERT_EQ(vec->Cell(r, c).ToString(), ref->Cell(r, c).ToString())
          << what << " cell (" << r << "," << c << ")";
    }
  }
}

TEST(DifferentialTest, BothEnginesAgreeAcrossNullDensities) {
  const char* kPredicates[] = {
      "i > 0",
      "i > 0 AND d < 10.0",
      "s = 'oslo' OR b = TRUE",
      "NOT (g = 2)",
      "s LIKE 'o%'",
      "s LIKE '%_y'",
      "i IN (1, 2, 3, 55)",
      "d IN (0.5)",
      "i + g > 3",
      "d * 2.0 <= i - 1",
      "i = d",
      "s >= 'm'",
  };
  const std::vector<SelectItem> kAggs = {
      SelectItem::Agg(AggFunc::kCount, ""),
      SelectItem::Agg(AggFunc::kCount, "i"),
      SelectItem::Agg(AggFunc::kSum, "i"),
      SelectItem::Agg(AggFunc::kSum, "d"),
      SelectItem::Agg(AggFunc::kAvg, "d"),
      SelectItem::Agg(AggFunc::kMin, "i"),
      SelectItem::Agg(AggFunc::kMax, "d"),
      SelectItem::Agg(AggFunc::kMin, "s"),
      SelectItem::Agg(AggFunc::kStdDev, "d"),
  };
  for (double null_density : {0.0, 0.2, 0.9}) {
    Rng rng(0xC0FFEE + static_cast<uint64_t>(null_density * 100));
    // Deliberately not a multiple of the executor's batch size, so the tail
    // batch path is exercised.
    Table t = RandomTable(&rng, 1500, null_density);
    const std::string tag = " (null_density=" + std::to_string(null_density) + ")";

    for (const char* sql : kPredicates) {
      auto pred = ParseExpression(sql);
      ASSERT_TRUE(pred.ok()) << sql;
      ExpectSameTable(Executor::Filter(t, *pred), rowref::Filter(t, *pred),
                      std::string("Filter ") + sql + tag);
    }
    ExpectSameTable(Executor::Filter(t, nullptr), rowref::Filter(t, nullptr),
                    "Filter <none>" + tag);
    ExpectSameTable(Executor::Project(t, {"d", "i"}), rowref::Project(t, {"d", "i"}),
                    "Project" + tag);
    ExpectSameTable(Executor::Aggregate(t, {}, kAggs), rowref::Aggregate(t, {}, kAggs),
                    "Aggregate global" + tag);
    ExpectSameTable(Executor::Aggregate(t, {"g"}, kAggs),
                    rowref::Aggregate(t, {"g"}, kAggs), "Aggregate by g" + tag);
    ExpectSameTable(Executor::Aggregate(t, {"g", "b"}, kAggs),
                    rowref::Aggregate(t, {"g", "b"}, kAggs),
                    "Aggregate by g,b" + tag);
  }
}

TEST(DifferentialTest, ExecuteMatchesFilteringEveryColumnFirst) {
  // Execute gathers only the columns a statement reads, after the WHERE.
  // The reference filters the whole table with the row engine first and
  // runs the statement without its WHERE on the result.
  const char* kStatements[] = {
      "SELECT i, d, s, b, g FROM t WHERE i > 0",
      "SELECT s, d FROM t WHERE i > 0 AND b = TRUE",
      "SELECT d AS dee FROM t WHERE s LIKE 'o%'",
      "SELECT g, COUNT(*), SUM(i) FROM t WHERE d < 10.0 GROUP BY g",
      "SELECT COUNT(s) FROM t WHERE g IN (1, 2)",
      "SELECT i, i FROM t WHERE NOT (g = 2)",
      "SELECT g FROM t",
  };
  Rng rng(0xD15C0);
  const sqlref::Tables tables{{"t", RandomTable(&rng, 1500, 0.2)}};
  for (const char* sql : kStatements) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto pre = rowref::Filter(tables.at("t"), stmt->where);
    ASSERT_TRUE(pre.ok()) << sql;
    const sqlref::Tables filtered{{"t", *pre}};
    SelectStatement unfiltered = *stmt;
    unfiltered.where = nullptr;
    ExpectSameTable(sqlref::Execute(tables, *stmt), sqlref::Execute(filtered, unfiltered),
                    sql);
  }
  // Predicate errors come before projection errors; a missing column keeps
  // its error.
  auto both = sqlref::Query(tables, "SELECT missing FROM t WHERE i LIKE 'x%'");
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().message(), "LIKE requires string operands");
  auto missing = sqlref::Query(tables, "SELECT missing FROM t WHERE i > 0");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "no column named 'missing'");
}

TEST(DifferentialTest, EmptyTablesAgree) {
  Table t(Schema{Column{"i", ColumnType::kInt64}, Column{"d", ColumnType::kDouble},
                 Column{"s", ColumnType::kString}, Column{"b", ColumnType::kBool},
                 Column{"g", ColumnType::kInt64}});
  auto pred = ParseExpression("i > 0");
  ASSERT_TRUE(pred.ok());
  ExpectSameTable(Executor::Filter(t, *pred), rowref::Filter(t, *pred),
                  "Filter empty");
  const std::vector<SelectItem> aggs = {SelectItem::Agg(AggFunc::kCount, ""),
                                        SelectItem::Agg(AggFunc::kSum, "i"),
                                        SelectItem::Agg(AggFunc::kStdDev, "d")};
  ExpectSameTable(Executor::Aggregate(t, {}, aggs), rowref::Aggregate(t, {}, aggs),
                  "Aggregate empty global");
  ExpectSameTable(Executor::Aggregate(t, {"g"}, aggs),
                  rowref::Aggregate(t, {"g"}, aggs), "Aggregate empty grouped");
}

TEST(DifferentialTest, ErrorCasesAgree) {
  Rng rng(7);
  Table t = RandomTable(&rng, 64, 0.1);
  auto like_on_int = ParseExpression("i LIKE 'x%'");
  ASSERT_TRUE(like_on_int.ok());
  EXPECT_FALSE(Executor::Filter(t, *like_on_int).ok());
  EXPECT_FALSE(rowref::Filter(t, *like_on_int).ok());
  EXPECT_FALSE(Executor::Project(t, {"missing"}).ok());
  EXPECT_FALSE(rowref::Project(t, {"missing"}).ok());
  EXPECT_FALSE(Executor::Aggregate(t, {}, {SelectItem::Col("i")}).ok());
  EXPECT_FALSE(rowref::Aggregate(t, {}, {SelectItem::Col("i")}).ok());
}

}  // namespace
}  // namespace relational
}  // namespace piye
