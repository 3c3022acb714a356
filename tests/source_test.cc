#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "core/scenario.h"
#include "persist/codec.h"
#include "relational/sql.h"
#include "relational/table_codec.h"
#include "source/loss_computation.h"
#include "source/piql.h"
#include "source/preservation.h"
#include "source/privacy_rewriter.h"
#include "source/query_cluster.h"
#include "source/query_transformer.h"
#include "source/remote_source.h"
#include "xml/parser.h"

namespace piye {
namespace source {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- PIQL parsing ---

TEST(PiqlTest, ParseFullQuery) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="cdc" purpose="disease-surveillance" maxLoss="0.4">
      <target path="//patient"/>
      <select>dateOfBirth</select>
      <select>diagnosis</select>
      <where>diagnosis = 'diabetes'</where>
    </query>)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->requester, "cdc");
  EXPECT_EQ(q->purpose, "disease-surveillance");
  EXPECT_DOUBLE_EQ(q->max_information_loss, 0.4);
  EXPECT_EQ(q->select.size(), 2u);
  ASSERT_NE(q->where, nullptr);
  EXPECT_FALSE(q->IsAggregate());
}

TEST(PiqlTest, ParseAggregateQuery) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="analyst" purpose="research">
      <aggregate func="AVG" attribute="rate"><groupBy>test</groupBy></aggregate>
    </query>)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->IsAggregate());
  EXPECT_EQ(q->aggregate->func, relational::AggFunc::kAvg);
  EXPECT_EQ(q->aggregate->group_by.size(), 1u);
}

TEST(PiqlTest, XmlRoundTrip) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="r" purpose="research" maxLoss="0.5">
      <select>dob</select><where>zip = 13053</where>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto q2 = PiqlQuery::Parse(xml::Serialize(*q->ToXml()));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->requester, "r");
  EXPECT_EQ(q2->select, q->select);
  EXPECT_EQ(q2->where->ToString(), q->where->ToString());
}

TEST(PiqlTest, ReferencedAttributes) {
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>a</select><where>b = 1 AND c = 2</where></query>)");
  ASSERT_TRUE(q.ok());
  const auto attrs = q->ReferencedAttributes();
  EXPECT_EQ(std::set<std::string>(attrs.begin(), attrs.end()),
            (std::set<std::string>{"a", "b", "c"}));
}

TEST(PiqlTest, ParseErrors) {
  EXPECT_FALSE(PiqlQuery::Parse("<notquery/>").ok());
  EXPECT_FALSE(PiqlQuery::Parse(R"(<query><aggregate func="AVG"/></query>)").ok());
  EXPECT_FALSE(
      PiqlQuery::Parse(R"(<query><aggregate func="WAT" attribute="x"/></query>)").ok());
}

/// A query whose WHERE is `where_text`, read through the requester's XML.
Result<PiqlQuery> ParseWhere(const std::string& where_text) {
  return PiqlQuery::Parse("<query requester=\"r\"><select>a</select><where>" + where_text +
                          "</where></query>");
}

std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(PiqlTest, OverBoundWhereIsAParseError) {
  // These once overflowed the stack: the parser's recursion on the rendered
  // NOTs and on the parentheses, and keying the AND chain's tree. The plain
  // NOT run parsed, and reached the source server as the rendered form.
  const std::pair<const char*, std::string> cases[] = {
      {"4,000 NOTs", Repeat("NOT ", 4000) + "a = 1"},
      {"4,000 NOTs as rendered", Repeat("(NOT ", 4000) + "(a = 1)" + Repeat(")", 4000)},
      {"5,000 parentheses", Repeat("(", 5000) + "a = 1" + Repeat(")", 5000)},
      {"100,000-term AND chain", Repeat("a = 1 AND ", 99'999) + "a = 1"},
  };
  for (const auto& [name, where_text] : cases) {
    SCOPED_TRACE(name);
    auto q = ParseWhere(where_text);
    // The engine keys every parsed query next, walking the whole tree.
    if (q.ok()) {
      EXPECT_FALSE(q->CanonicalKey().empty());
    }
    ASSERT_FALSE(q.ok());
    EXPECT_TRUE(q.status().IsParseError()) << q.status().ToString();
  }
  // The SQL text parser behind policies and views holds the same bound.
  EXPECT_TRUE(relational::ParseSql("SELECT a FROM t WHERE " + Repeat("(", 5000) + "a = 1" +
                                   Repeat(")", 5000))
                  .status()
                  .IsParseError());
  // Unary minus is two nodes (0 - x) per sign.
  EXPECT_TRUE(relational::ParseExpression(Repeat("-", relational::kMaxExpressionNodes) + "1")
                  .status()
                  .IsParseError());
}

// --- PIQL codec: PiqlQuery::CanonicalKey and PiqlQuery::Decode ---

using relational::AggFunc;
using relational::ExprPtr;
using relational::Expression;

constexpr size_t kOpCount = static_cast<size_t>(Expression::Op::kIn) + 1;
constexpr size_t kAggFuncCount = static_cast<size_t>(AggFunc::kStdDev) + 1;

std::string RandomText(Rng* rng) {
  static const char kAlphabet[] = "ab'\" <&>%_-0";
  std::string out(rng->NextBounded(6), ' ');
  for (char& c : out) c = kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  return out;
}

/// A literal of a random tag, often an edge value.
Value RandomLiteral(Rng* rng) {
  static const Value kEdges[] = {
      Value::Null(),
      Value::Int(0),
      Value::Int(INT64_MIN),
      Value::Int(INT64_MAX),
      Value::Real(std::nan("")),
      Value::Real(-0.0),
      Value::Real(std::numeric_limits<double>::infinity()),
      Value::Real(std::numeric_limits<double>::denorm_min()),
      Value::Str(""),
      Value::Str("O'Brien"),
      Value::Str("a' OR diagnosis = 'flu"),
      Value::Boolean(true),
      Value::Boolean(false),
  };
  if (rng->NextBounded(2) == 0) return kEdges[rng->NextBounded(std::size(kEdges))];
  switch (rng->NextBounded(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 2:
      return Value::Real(rng->NextUniform(-1e6, 1e6));
    case 3:
      return Value::Str(RandomText(rng));
    default:
      return Value::Boolean(rng->NextBounded(2) == 1);
  }
}

ExprPtr RandomExpression(Rng* rng, int depth) {
  const auto op = static_cast<Expression::Op>(rng->NextBounded(depth > 0 ? kOpCount : 2));
  switch (op) {
    case Expression::Op::kLiteral:
      return Expression::Literal(RandomLiteral(rng));
    case Expression::Op::kColumn:
      return Expression::ColumnRef(RandomText(rng));
    case Expression::Op::kNot:
      return Expression::Not(RandomExpression(rng, depth - 1));
    case Expression::Op::kIn: {
      std::vector<Value> values(rng->NextBounded(4));
      for (Value& v : values) v = RandomLiteral(rng);
      return Expression::In(RandomExpression(rng, depth - 1), std::move(values));
    }
    default:
      return Expression::Binary(op, RandomExpression(rng, depth - 1),
                                RandomExpression(rng, depth - 1));
  }
}

PiqlQuery RandomQuery(Rng* rng) {
  static const double kLosses[] = {0.0, 1.0, -0.0, 0.95, std::nan("")};
  PiqlQuery q;
  q.requester = RandomText(rng);
  q.purpose = RandomText(rng);
  q.max_information_loss = rng->NextBounded(2) == 0
                               ? kLosses[rng->NextBounded(std::size(kLosses))]
                               : rng->NextDouble();
  q.target_path = RandomText(rng);
  q.select.resize(rng->NextBounded(4));
  for (std::string& name : q.select) name = RandomText(rng);
  if (rng->NextBounded(2) == 1) q.where = RandomExpression(rng, 4);
  if (rng->NextBounded(2) == 1) {
    PiqlAggregate& agg = q.aggregate.emplace();
    agg.func = static_cast<AggFunc>(rng->NextBounded(kAggFuncCount));
    agg.attribute = RandomText(rng);
    agg.group_by.resize(rng->NextBounded(3));
    for (std::string& g : agg.group_by) g = RandomText(rng);
  }
  return q;
}

/// Marks every op and literal tag (null, int, double, string, bool) in `e`.
void CollectShapes(const Expression& e, std::set<int>* ops, std::set<int>* tags) {
  ops->insert(static_cast<int>(e.op()));
  std::vector<Value> literals = e.in_values();
  if (e.op() == Expression::Op::kLiteral) literals.push_back(e.literal());
  for (const Value& v : literals) {
    tags->insert(v.is_null() ? 0 : v.is_int() ? 1 : v.is_double() ? 2 : v.is_string() ? 3 : 4);
  }
  if (e.lhs() != nullptr) CollectShapes(*e.lhs(), ops, tags);
  if (e.rhs() != nullptr) CollectShapes(*e.rhs(), ops, tags);
}

/// Decode must accept `bytes` and give back exactly them, or refuse them
/// with a parse error.
void ExpectCanonicalOrParseError(const std::string& bytes) {
  auto decoded = PiqlQuery::Decode(bytes);
  if (decoded.ok()) {
    EXPECT_EQ(decoded->CanonicalKey(), bytes);
  } else {
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status().ToString();
  }
}

TEST(PiqlCodecTest, DecodeReencodesEveryGeneratedKeyByteForByte) {
  std::set<int> ops, tags, funcs;
  std::set<std::pair<bool, bool>> presence;  // (where, aggregate)
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const PiqlQuery q = RandomQuery(&rng);
    const std::string key = q.CanonicalKey();
    auto decoded = PiqlQuery::Decode(key);
    ASSERT_TRUE(decoded.ok()) << seed << ": " << decoded.status().ToString();
    ASSERT_EQ(decoded->CanonicalKey(), key) << seed;
    EXPECT_EQ(decoded->select, q.select);
    ASSERT_EQ(decoded->where != nullptr, q.where != nullptr);
    if (q.where != nullptr) CollectShapes(*decoded->where, &ops, &tags);
    if (q.aggregate.has_value()) funcs.insert(static_cast<int>(decoded->aggregate->func));
    presence.emplace(q.where != nullptr, q.aggregate.has_value());
  }
  // The generator reached every op, literal tag, aggregate function and
  // presence combination.
  EXPECT_EQ(ops.size(), kOpCount);
  EXPECT_EQ(tags.size(), 5u);
  EXPECT_EQ(funcs.size(), kAggFuncCount);
  EXPECT_EQ(presence.size(), 4u);
}

TEST(PiqlCodecTest, RejectsUnknownVersionsCodesAndTrailingBytes) {
  PiqlQuery q;
  q.requester = "r";
  q.select = {"a"};
  const std::string key = q.CanonicalKey();
  // The key ends with the absent-WHERE and absent-aggregate flags.
  const std::string fields = key.substr(0, key.size() - 2);
  persist::Encoder column;
  Expression::ColumnRef("a")->AppendCanonicalKey(&column);
  persist::Encoder huge_count;
  huge_count.PutU64(uint64_t{1} << 40);
  const std::pair<const char*, std::string> cases[] = {
      {"version 0", std::string(1, '\x00') + key.substr(1)},
      {"version 2", std::string(1, '\x02') + key.substr(1)},
      {"trailing byte", key + '\x00'},
      {"WHERE flag 2", fields + std::string("\x02\x00", 2)},
      {"aggregate flag 2", fields + std::string("\x00\x02", 2)},
      {"op code 17", fields + std::string("\x01\x11\x00", 3)},
      {"literal tag 5", fields + std::string("\x01\x00\x05\x00", 4)},
      {"bool byte 2", fields + std::string("\x01\x00\x04\x02\x00", 5)},
      {"IN count past the end", fields + "\x01\x10" + column.bytes() +
                                    huge_count.bytes() + std::string(1, '\x00')},
      {"AggFunc 6", fields + std::string("\x00\x01\x06", 3) + std::string(8, '\x00') +
                        std::string(8, '\x00')},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    auto decoded = PiqlQuery::Decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status().ToString();
  }
  // The cases differ from valid keys only in the byte under test.
  EXPECT_TRUE(PiqlQuery::Decode(fields + std::string("\x01\x00\x04\x01\x00", 5)).ok());
  EXPECT_TRUE(PiqlQuery::Decode(fields + std::string("\x00\x01\x05", 3) +
                                std::string(16, '\x00'))
                  .ok());
}

TEST(PiqlCodecTest, TreesAreBoundedAtKMaxExpressionNodes) {
  // A NOT chain is the deepest tree for its size; at the bound it crosses
  // every boundary, one node more and it crosses none.
  auto chain = [](size_t nodes) {
    ExprPtr e = Expression::ColumnRef("a");
    for (size_t i = 1; i < nodes; ++i) e = Expression::Not(std::move(e));
    PiqlQuery q;
    q.requester = "r";
    q.where = std::move(e);
    return q;
  };
  const PiqlQuery at_bound = chain(relational::kMaxExpressionNodes);
  auto decoded = PiqlQuery::Decode(at_bound.CanonicalKey());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->where->NodeCount(), relational::kMaxExpressionNodes);
  auto reparsed = ParseWhere(at_bound.where->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->where->NodeCount(), relational::kMaxExpressionNodes);

  const PiqlQuery over = chain(relational::kMaxExpressionNodes + 1);
  EXPECT_TRUE(PiqlQuery::Decode(over.CanonicalKey()).status().IsParseError());
  EXPECT_TRUE(ParseWhere(over.where->ToString()).status().IsParseError());
}

TEST(PiqlCodecTest, TruncationsAndByteMutationsDecodeOrFailCleanly) {
  // Sample keys with a WHERE and an aggregate; every strict prefix is
  // refused, and every single-byte change either decodes to a query that
  // re-encodes to exactly those bytes or is refused with a parse error.
  size_t samples = 0;
  for (uint64_t seed = 1; samples < 4; ++seed) {
    Rng rng(seed);
    const PiqlQuery q = RandomQuery(&rng);
    if (q.where == nullptr || !q.aggregate.has_value()) continue;
    ++samples;
    const std::string key = q.CanonicalKey();
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(key.size()) +
                 " bytes");
    for (size_t cut = 0; cut < key.size(); ++cut) {
      auto decoded = PiqlQuery::Decode(key.substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << cut;
      EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status().ToString();
    }
    for (size_t at = 0; at < key.size(); ++at) {
      std::string mutated = key;
      for (int byte = 0; byte < 256; ++byte) {
        if (static_cast<char>(byte) == key[at]) continue;
        mutated[at] = static_cast<char>(byte);
        ExpectCanonicalOrParseError(mutated);
      }
    }
  }
}

// --- Query transformer ---

Schema PatientSchema() {
  return Schema{Column{"patient_id", ColumnType::kString},
                Column{"dob", ColumnType::kString},
                Column{"zip", ColumnType::kInt64},
                Column{"diagnosis", ColumnType::kString}};
}

TEST(QueryTransformerTest, LooseNameResolution) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r" purpose="p">
      <select>dateOfBirth</select>
      <where>condition = 'diabetes'</where>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->bindings.at("dateOfBirth"), "dob");
  EXPECT_EQ(t->bindings.at("condition"), "diagnosis");  // synonym
  EXPECT_EQ(t->stmt.table, "patients");
  EXPECT_NE(t->stmt.where->ToString().find("diagnosis"), std::string::npos);
}

TEST(QueryTransformerTest, UnresolvedSelectIsTolerated) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>dob</select><select>bloodType</select></query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->stmt.items.size(), 1u);
  ASSERT_EQ(t->unresolved.size(), 1u);
  EXPECT_EQ(t->unresolved[0], "bloodType");
}

TEST(QueryTransformerTest, UnresolvedWhereFails) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r"><select>dob</select><where>bloodType = 'A'</where></query>)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(transformer.Transform(*q, "patients", PatientSchema()).ok());
}

TEST(QueryTransformerTest, AggregateAliasesUseMediatedNames) {
  const QueryTransformer transformer(DefaultClinicalNameMatcher());
  auto q = PiqlQuery::Parse(R"(
    <query requester="r">
      <aggregate func="COUNT" attribute="diagnosis"><groupBy>zip</groupBy></aggregate>
    </query>)");
  ASSERT_TRUE(q.ok());
  auto t = transformer.Transform(*q, "patients", PatientSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->stmt.items.size(), 2u);
  EXPECT_EQ(t->stmt.items[0].alias, "zip");
  EXPECT_EQ(t->stmt.items[1].alias, "count_diagnosis");
}

// --- Privacy rewriter (via a configured source) ---

class RemoteSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.5, 11);
    src_ = std::make_unique<RemoteSource>("hospitalA", "patients",
                                          std::move(tables.hospital), 1);
    core::ClinicalScenario::ApplyPatientPolicies(src_.get());
  }

  PiqlQuery MakeQuery(const std::string& body) {
    auto q = PiqlQuery::Parse("<query requester=\"analyst\" purpose=\"research\" "
                              "maxLoss=\"0.9\">" + body + "</query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  std::unique_ptr<RemoteSource> src_;
};

TEST_F(RemoteSourceTest, DeniedColumnIsStripped) {
  // `name` has no policy rule ⇒ default deny; dob and diagnosis survive.
  auto result = src_->ExecuteFragment(
      MakeQuery("<select>name</select><select>diagnosis</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->table.schema().Contains("name"));
  EXPECT_TRUE(result->table.schema().Contains("diagnosis"));

  // The rewriter records what it stripped.
  const PiqlQuery q = MakeQuery("<select>name</select><select>diagnosis</select>");
  auto transformed = QueryTransformer(DefaultClinicalNameMatcher())
                         .Transform(q, "patients", src_->schema());
  ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
  auto rewritten = PrivacyRewriter(&src_->policies(), src_->mutable_rbac(), "hospitalA")
                       .Rewrite(transformed->stmt, q);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  ASSERT_EQ(rewritten->denied_columns.size(), 1u);
  EXPECT_EQ(rewritten->denied_columns[0], "name");
  ASSERT_EQ(rewritten->stmt.items.size(), 1u);
  EXPECT_EQ(rewritten->stmt.items[0].column, "diagnosis");
}

// A fragment predicate that raises an evaluation error fails the fragment
// with the evaluator's status, whichever stage first evaluates it.
TEST_F(RemoteSourceTest, RaisingPredicateFailsRowFragment) {
  auto like = src_->ExecuteFragment(
      MakeQuery("<select>diagnosis</select><where>zip LIKE '9%'</where>"));
  ASSERT_FALSE(like.ok());
  EXPECT_TRUE(like.status().IsInvalidArgument()) << like.status().ToString();
  EXPECT_EQ(like.status().message(), "LIKE requires string operands");

  auto arithmetic = src_->ExecuteFragment(
      MakeQuery("<select>diagnosis</select><where>diagnosis + 1 &gt; 0</where>"));
  ASSERT_FALSE(arithmetic.ok());
  EXPECT_TRUE(arithmetic.status().IsInvalidArgument())
      << arithmetic.status().ToString();
  EXPECT_EQ(arithmetic.status().message(), "arithmetic on non-numeric values");
}

TEST_F(RemoteSourceTest, RaisingPredicateFailsAggregateAtQuerySetCheck) {
  // The query-set restriction applies to this aggregate shape: a
  // well-formed tracker-sized predicate is refused there.
  auto tracker = src_->ExecuteFragment(MakeQuery(
      "<aggregate func=\"COUNT\" attribute=\"diagnosis\"/>"
      "<where>diagnosis = 'no-such-diagnosis'</where>"));
  ASSERT_FALSE(tracker.ok());
  EXPECT_TRUE(tracker.status().IsPrivacyViolation()) << tracker.status().ToString();
  EXPECT_NE(tracker.status().message().find("tracker risk"), std::string::npos)
      << tracker.status().ToString();

  auto like = src_->ExecuteFragment(MakeQuery(
      "<aggregate func=\"COUNT\" attribute=\"diagnosis\"/>"
      "<where>zip LIKE '9%'</where>"));
  ASSERT_FALSE(like.ok());
  EXPECT_TRUE(like.status().IsInvalidArgument()) << like.status().ToString();
  EXPECT_EQ(like.status().message(), "LIKE requires string operands");

  auto arithmetic = src_->ExecuteFragment(MakeQuery(
      "<aggregate func=\"COUNT\" attribute=\"diagnosis\"/>"
      "<where>diagnosis * 2 &gt; 1</where>"));
  ASSERT_FALSE(arithmetic.ok());
  EXPECT_TRUE(arithmetic.status().IsInvalidArgument())
      << arithmetic.status().ToString();
  EXPECT_EQ(arithmetic.status().message(), "arithmetic on non-numeric values");
}

TEST_F(RemoteSourceTest, RaisingPredicateOverEmptyEffectiveTable) {
  // No row is ever evaluated, so nothing raises: the row fragment releases
  // an empty table and the aggregate is refused by the query-set check.
  RemoteSource empty("hospitalA", "patients", Table(src_->schema()), 1);
  core::ClinicalScenario::ApplyPatientPolicies(&empty);
  ASSERT_EQ(empty.EffectiveTable()->num_rows(), 0u);

  auto rows = empty.ExecuteFragment(
      MakeQuery("<select>diagnosis</select><where>zip LIKE '9%'</where>"));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->table.num_rows(), 0u);

  auto aggregate = empty.ExecuteFragment(MakeQuery(
      "<aggregate func=\"COUNT\" attribute=\"diagnosis\"/>"
      "<where>diagnosis + 1 &gt; 0</where>"));
  ASSERT_FALSE(aggregate.ok());
  EXPECT_TRUE(aggregate.status().IsPrivacyViolation())
      << aggregate.status().ToString();
  EXPECT_NE(aggregate.status().message().find("tracker risk"), std::string::npos)
      << aggregate.status().ToString();
}

TEST_F(RemoteSourceTest, RaisingPredicatesTakeTheFullScan) {
  // An index could skip the rows a raising conjunct fails on; the scan
  // counters show the full scan ran, and the error is the evaluator's.
  auto like = src_->ExecuteFragment(MakeQuery(
      "<select>diagnosis</select>"
      "<where>dob &gt;= '1950' AND zip LIKE '9%'</where>"));
  ASSERT_FALSE(like.ok());
  EXPECT_EQ(like.status().message(), "LIKE requires string operands");
  EXPECT_EQ(src_->scan_stats().full_scans, 1u);
  EXPECT_EQ(src_->scan_stats().index_scans, 0u);
  EXPECT_EQ(src_->scan_stats().rows_examined, src_->num_rows());

  // Over an empty effective table even an eligible WHERE keeps the full scan.
  RemoteSource empty("hospitalA", "patients", Table(src_->schema()), 1);
  core::ClinicalScenario::ApplyPatientPolicies(&empty);
  auto rows = empty.ExecuteFragment(
      MakeQuery("<select>diagnosis</select><where>dob &gt;= '1950'</where>"));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(empty.scan_stats().full_scans, 1u);
  EXPECT_EQ(empty.scan_stats().index_scans, 0u);
  EXPECT_EQ(empty.scan_stats().index_builds, 0u);
}

TEST_F(RemoteSourceTest, AllDeniedIsPrivacyViolation) {
  auto q = MakeQuery("<select>name</select>");
  q.max_information_loss = 1.0;
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, WrongPurposeDenied) {
  auto q = MakeQuery("<select>diagnosis</select>");
  q.purpose = "marketing";
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, RangeColumnsAreGeneralized) {
  auto result = src_->ExecuteFragment(MakeQuery("<select>zip</select>"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // zip is kGeneralized ⇒ released as STRING ranges, never raw ints.
  ASSERT_TRUE(result->table.schema().Contains("zip"));
  auto idx = result->table.schema().IndexOf("zip");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(result->table.schema().column(*idx).type, ColumnType::kString);
  for (size_t r = 0; r < result->table.num_rows(); ++r) {
    const Value cell = result->table.Cell(r, *idx);
    if (cell.is_null()) continue;
    EXPECT_NE(cell.AsString().find('['), std::string::npos);
  }
}

TEST_F(RemoteSourceTest, LinkageClassReleaseGeneralizesRangeColumnsOnce) {
  // A wide unfiltered row dump is a linkage-class query: (0,0,0,1,8,...) is
  // that class's exemplar, one unit from this 8-column query. Its numeric
  // kRange column must be released as [lo,hi) buckets; generalizing the
  // bucket strings a second time would cut them to a prefix like "[20*".
  Table table(Schema{Column{"patient_id", ColumnType::kString},
                     Column{"age", ColumnType::kInt64},
                     Column{"sex", ColumnType::kString},
                     Column{"ward", ColumnType::kString},
                     Column{"diagnosis", ColumnType::kString},
                     Column{"drug", ColumnType::kString},
                     Column{"insurer", ColumnType::kString},
                     Column{"outcome", ColumnType::kString}});
  for (int i = 0; i < 64; ++i) {
    table.AppendRowUnchecked({Value::Str("p" + std::to_string(i)), Value::Int(20 + i),
                              Value::Str(i % 2 ? "F" : "M"), Value::Str("w"),
                              Value::Str("d"), Value::Str("x"), Value::Str("i"),
                              Value::Str("o")});
  }
  RemoteSource wide("hospitalA", "patients", std::move(table), 1);
  policy::PrivacyPolicy policy("hospitalA", {});
  for (const auto& col : wide.schema().columns()) {
    policy::PolicyRule rule;
    rule.id = col.name + "-rule";
    rule.item = {"*", col.name};
    rule.purposes = {"healthcare"};
    rule.recipients = {"*"};
    rule.form = col.name == "age" ? policy::DisclosureForm::kRange
                                  : policy::DisclosureForm::kExact;
    rule.max_privacy_loss = 1.0;
    policy.AddRule(rule);
  }
  ASSERT_TRUE(wide.mutable_policies()->AddPolicy(std::move(policy)).ok());
  ASSERT_TRUE(wide.mutable_rbac()->AddRole("analyst").ok());
  ASSERT_TRUE(wide.mutable_rbac()->AssignRole("analyst", "analyst").ok());
  ASSERT_TRUE(
      wide.mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*").ok());

  std::string select;
  for (const auto& col : wide.schema().columns()) {
    select += "<select>" + col.name + "</select>";
  }
  auto result = wide.ExecuteFragment(MakeQuery(select));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto idx = result->table.schema().IndexOf("age");
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(result->table.num_rows(), 64u);
  for (size_t r = 0; r < result->table.num_rows(); ++r) {
    const std::string cell = result->table.Cell(r, *idx).AsString();
    ASSERT_GE(cell.size(), 5u) << cell;
    EXPECT_EQ(cell.front(), '[') << cell;
    EXPECT_EQ(cell.back(), ')') << cell;
    EXPECT_NE(cell.find(','), std::string::npos) << cell;
  }
}

TEST_F(RemoteSourceTest, RequesterInfoLossToleranceGates) {
  // Asking for 3 columns of which 1 is denied ⇒ info loss >= 1/3; a
  // requester tolerating only 0.1 is refused outright.
  auto q = MakeQuery(
      "<select>name</select><select>diagnosis</select><select>sex</select>");
  q.max_information_loss = 0.1;
  auto result = src_->ExecuteFragment(q);
  EXPECT_TRUE(result.status().IsPrivacyViolation());
}

TEST_F(RemoteSourceTest, ResultCarriesPrivacyTags) {
  auto result = src_->ExecuteFragment(MakeQuery("<select>diagnosis</select>"));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->losses.privacy_loss, 0.0);
  EXPECT_LE(result->loss_budget, 1.0);
  // One tag per released column, aligned by position, each carrying the
  // disclosure form the rewriter granted.
  ASSERT_EQ(result->column_tags.size(), result->table.num_columns());
  ASSERT_FALSE(result->column_tags.empty());
  for (size_t c = 0; c < result->column_tags.size(); ++c) {
    EXPECT_EQ(result->column_tags[c].name, result->table.schema().column(c).name);
  }
  EXPECT_TRUE(result->column_tags[0].form.has_value());
}

TEST_F(RemoteSourceTest, SketchesRespectPolicy) {
  src_->HideSchemaColumn("zip");  // zip's *name* is itself sensitive here
  auto sketches = src_->ExportSketches("shared");
  ASSERT_TRUE(sketches.ok());
  std::set<std::string> names;
  bool zip_hidden_name = false;
  for (const auto& s : *sketches) {
    names.insert(s.ref.column);
    if (!s.name_public) zip_hidden_name = true;
  }
  // name is denied: not exported at all.
  EXPECT_EQ(names.count("name"), 0u);
  // diagnosis is exact: exported with its public name.
  EXPECT_EQ(names.count("diagnosis"), 1u);
  // The hidden column exports only under a hashed tag.
  EXPECT_EQ(names.count("zip"), 0u);
  EXPECT_TRUE(zip_hidden_name);
}

// --- Cluster matching ---

TEST(QueryFeaturesTest, ExtractsShape) {
  auto stmt = relational::ParseSql(
      "SELECT city, AVG(rate) FROM t WHERE a = 1 AND b = 2 GROUP BY city");
  ASSERT_TRUE(stmt.ok());
  const QueryFeatures f = QueryFeatures::Extract(*stmt);
  EXPECT_DOUBLE_EQ(f.v[0], 1.0);  // aggregate
  EXPECT_DOUBLE_EQ(f.v[1], 1.0);  // one agg func
  EXPECT_GT(f.v[2], 2.0);         // predicate nodes
  EXPECT_DOUBLE_EQ(f.v[3], 0.0);  // not row-level
  EXPECT_DOUBLE_EQ(f.v[5], 1.0);  // grouped
}

TEST(ClusterStoreTest, DefaultStoreClassifiesCanonicalShapes) {
  const ClusterStore store = ClusterStore::Default();
  // A grouped aggregate maps to aggregate-inference.
  auto agg = relational::ParseSql("SELECT t, AVG(r) FROM c GROUP BY t");
  ASSERT_TRUE(agg.ok());
  const QueryCluster* c1 = store.Map(QueryFeatures::Extract(*agg));
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->breach, BreachClass::kAggregateInference);
  // A narrow row-level probe maps to attribute disclosure.
  auto probe = relational::ParseSql(
      "SELECT rate FROM c WHERE a = 1 AND b = 2 AND d = 3 LIMIT 1");
  ASSERT_TRUE(probe.ok());
  const QueryCluster* c2 = store.Map(QueryFeatures::Extract(*probe));
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->breach, BreachClass::kAttributeDisclosure);
}

TEST(ClusterStoreTest, UntrainedStoreMapsToNull) {
  ClusterStore store;
  auto stmt = relational::ParseSql("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(store.Map(QueryFeatures::Extract(*stmt)), nullptr);
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(3);
  std::vector<QueryFeatures> points;
  for (int i = 0; i < 40; ++i) {
    QueryFeatures f;
    f.v[0] = i < 20 ? 0.0 : 1.0;
    f.v[4] = i < 20 ? 8.0 : 1.0;
    points.push_back(f);
  }
  const auto centroids = KMeansCluster(points, 2, 20, &rng);
  ASSERT_EQ(centroids.size(), 2u);
  EXPECT_GT(std::fabs(centroids[0].v[4] - centroids[1].v[4]), 5.0);
}

// --- Loss computation ---

TEST(LossComputationTest, FormWeightsAreMonotone) {
  using policy::DisclosureForm;
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kDenied),
            LossComputation::FormWeight(DisclosureForm::kAggregate));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kAggregate),
            LossComputation::FormWeight(DisclosureForm::kRange));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kRange),
            LossComputation::FormWeight(DisclosureForm::kGeneralized));
  EXPECT_LT(LossComputation::FormWeight(DisclosureForm::kGeneralized),
            LossComputation::FormWeight(DisclosureForm::kExact));
}

TEST(LossComputationTest, EstimatesBalanceBothLosses) {
  using policy::DisclosureForm;
  std::map<std::string, DisclosureForm> forms{{"a", DisclosureForm::kExact}};
  auto e = LossComputation::Estimate(forms, 0);
  EXPECT_DOUBLE_EQ(e.privacy_loss, 0.8);
  EXPECT_DOUBLE_EQ(e.information_loss, 0.0);  // exact delivery, full fidelity
  forms["a"] = DisclosureForm::kAggregate;
  e = LossComputation::Estimate(forms, 1);  // plus a denied column
  EXPECT_DOUBLE_EQ(e.privacy_loss, 0.1);
  EXPECT_NEAR(e.information_loss, (0.6 + 1.0) / 2.0, 1e-9);
}

// --- Preservation module ---

TEST(PreservationTest, RoundingCoarsensAggregates) {
  Table t(Schema{Column{"avg_rate", ColumnType::kDouble}});
  (void)t.AppendRow(Row{Value::Real(83.07)});
  const PreservationModule preservation;
  std::map<std::string, policy::DisclosureForm> forms{
      {"avg_rate", policy::DisclosureForm::kAggregate}};
  Rng rng(1);
  auto out = preservation.Apply(t, forms, /*budget=*/0.5, {Technique::kRounding}, &rng);
  ASSERT_TRUE(out.ok());
  const double v = out->Cell(0, 0).AsDouble();
  EXPECT_NE(v, 83.07);           // coarsened
  EXPECT_NEAR(v, 83.07, 2.0);    // but close
}

TEST(PreservationTest, SuppressionDropsUniqueRows) {
  Table t(Schema{Column{"g", ColumnType::kString}});
  for (const char* g : {"a", "a", "a", "b"}) {
    (void)t.AppendRow(Row{Value::Str(g)});
  }
  PreservationModule::Config config;
  config.k = 3;
  const PreservationModule preservation(config);
  Rng rng(1);
  const std::map<std::string, policy::DisclosureForm> forms{
      {"g", policy::DisclosureForm::kGeneralized}};
  auto out = preservation.Apply(t, forms, 1.0, {Technique::kSuppression}, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // the lone "b" is suppressed
}

TEST(PreservationTest, SuppressionClassesDoNotCollide) {
  // ("a\x1f", "b") and ("a", "\x1fb") are two classes of one row each, as
  // are NULL and 'NULL': with k = 2 every row is suppressed.
  PreservationModule::Config config;
  config.k = 2;
  const PreservationModule preservation(config);
  Rng rng(1);
  Table pairs(Schema{Column{"g", ColumnType::kString}, Column{"h", ColumnType::kString}});
  (void)pairs.AppendRow(Row{Value::Str("a\x1f"), Value::Str("b")});
  (void)pairs.AppendRow(Row{Value::Str("a"), Value::Str("\x1f" "b")});
  const std::map<std::string, policy::DisclosureForm> forms{
      {"g", policy::DisclosureForm::kGeneralized},
      {"h", policy::DisclosureForm::kGeneralized}};
  auto out = preservation.Apply(pairs, forms, 1.0, {Technique::kSuppression}, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);

  Table nulls(Schema{Column{"g", ColumnType::kString}});
  (void)nulls.AppendRow(Row{Value::Null()});
  (void)nulls.AppendRow(Row{Value::Str("NULL")});
  (void)nulls.AppendRow(Row{Value::Str("x")});
  (void)nulls.AppendRow(Row{Value::Str("x")});
  out = preservation.Apply(nulls, forms, 1.0, {Technique::kSuppression}, &rng);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);  // only the class of two "x" rows stays
  EXPECT_EQ(out->Cell(0, 0), Value::Str("x"));
  EXPECT_EQ(out->Cell(1, 0), Value::Str("x"));
}

TEST(PreservationTest, DefaultTechniquesFollowForms) {
  const PreservationModule preservation;
  using policy::DisclosureForm;
  auto techniques = preservation.DefaultTechniques(
      {{"a", DisclosureForm::kRange}, {"b", DisclosureForm::kAggregate}}, 0.2);
  std::set<Technique> set(techniques.begin(), techniques.end());
  EXPECT_TRUE(set.count(Technique::kGeneralization));
  EXPECT_TRUE(set.count(Technique::kRounding));
  EXPECT_TRUE(set.count(Technique::kNoiseAddition));
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- Privacy views inside the pipeline ---

class ViewedSourceTest : public ::testing::Test {
 protected:
  void SetUp() override { src_ = MakeSource(); }

  static std::unique_ptr<RemoteSource> MakeSource() {
    Table t(Schema{Column{"patient_id", ColumnType::kString},
                   Column{"diagnosis", ColumnType::kString},
                   Column{"consented", ColumnType::kBool}});
    (void)t.AppendRow(Row{Value::Str("P1"), Value::Str("diabetes"),
                          Value::Boolean(true)});
    (void)t.AppendRow(Row{Value::Str("P2"), Value::Str("asthma"),
                          Value::Boolean(false)});
    (void)t.AppendRow(Row{Value::Str("P3"), Value::Str("diabetes"),
                          Value::Boolean(true)});
    auto src = std::make_unique<RemoteSource>("clinic", "patients", std::move(t), 1);
    policy::PrivacyPolicy policy("clinic", {});
    policy::PolicyRule rule;
    rule.id = "all-healthcare";
    rule.item = {"*", "*"};
    rule.purposes = {"healthcare"};
    rule.recipients = {"*"};
    rule.form = policy::DisclosureForm::kExact;
    policy.AddRule(rule);
    (void)src->mutable_policies()->AddPolicy(std::move(policy));
    (void)src->mutable_rbac()->AddRole("analyst");
    (void)src->mutable_rbac()->AssignRole("analyst", "analyst");
    (void)src->mutable_rbac()->Grant("analyst", access::Action::kSelect, "*", "*");
    return src;
  }

  std::unique_ptr<RemoteSource> src_;
};

TEST_F(ViewedSourceTest, PrivacyViewGatesRowsAndColumns) {
  // Register a view: only consented rows exist, and the consent flag itself
  // is not exported.
  policy::PrivacyView view("consented_only", "patients");
  view.AddVisibleColumn("patient_id");
  view.AddVisibleColumn("diagnosis");
  auto filter = relational::ParseExpression("consented = TRUE");
  ASSERT_TRUE(filter.ok());
  view.set_row_filter(*filter);
  ASSERT_TRUE(src_->mutable_policies()->AddView("clinic", std::move(view)).ok());

  auto effective = src_->EffectiveTable();
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->num_rows(), 2u);
  EXPECT_FALSE(effective->schema().Contains("consented"));

  auto q = PiqlQuery::Parse(
      R"(<query requester="analyst" purpose="research" maxLoss="1.0">
           <select>diagnosis</select></query>)");
  ASSERT_TRUE(q.ok());
  auto result = src_->ExecuteFragment(*q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // P2 (unconsented) never appears — the view filtered it before any stage.
  EXPECT_EQ(result->table.num_rows(), 2u);

  // Sketches are view-scoped too: `consented` is invisible to the mediator.
  auto sketches = src_->ExportSketches("k");
  ASSERT_TRUE(sketches.ok());
  for (const auto& s : *sketches) {
    EXPECT_NE(s.ref.column, "consented");
  }
}

TEST_F(ViewedSourceTest, NoViewMeansRawTable) {
  auto effective = src_->EffectiveTable();
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->num_rows(), 3u);
  EXPECT_TRUE(effective->schema().Contains("consented"));
}

TEST_F(ViewedSourceTest, AddViewRebuildsTheSnapshot) {
  auto q = PiqlQuery::Parse(
      R"(<query requester="analyst" purpose="research" maxLoss="1.0">
           <select>patient_id</select><where>diagnosis &gt;= 'a'</where></query>)");
  ASSERT_TRUE(q.ok());
  auto before = src_->ExecuteFragment(*q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->table.num_rows(), 3u);
  EXPECT_EQ(src_->scan_stats().index_builds, 1u);

  auto consented_only = [] {
    policy::PrivacyView view("consented_only", "patients");
    view.AddVisibleColumn("patient_id");
    view.AddVisibleColumn("diagnosis");
    view.set_row_filter(*relational::ParseExpression("consented = TRUE"));
    return view;
  };
  ASSERT_TRUE(src_->mutable_policies()->AddView("clinic", consented_only()).ok());
  auto after = src_->ExecuteFragment(*q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(src_->scan_stats().index_builds, 2u);  // rebuilt for the new generation

  // The answer is the one a source built with the view from the start gives.
  auto fresh = MakeSource();
  ASSERT_TRUE(fresh->mutable_policies()->AddView("clinic", consented_only()).ok());
  auto want = fresh->ExecuteFragment(*q);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(after->table.num_rows(), 2u);
  EXPECT_EQ(relational::EncodeTable(after->table), relational::EncodeTable(want->table));
}

// --- The scan: index for bounded WHEREs, full scan otherwise ---

class ScanSourceTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 100;

  void SetUp() override {
    Table t(Schema{Column{"pid", ColumnType::kString}, Column{"age", ColumnType::kInt64},
                   Column{"rate", ColumnType::kDouble}});
    for (size_t i = 0; i < kRows; ++i) {
      (void)t.AppendRow(Row{Value::Str("P" + std::to_string(i)),
                            Value::Int(static_cast<int64_t>(i)),
                            Value::Real(static_cast<double>(i % 7))});
    }
    src_ = std::make_unique<RemoteSource>("hmo", "stats", std::move(t), 1);
    policy::PrivacyPolicy policy("hmo", {});
    policy::PolicyRule rule;
    rule.id = "all";
    rule.item = {"*", "*"};
    rule.purposes = {"*"};
    rule.recipients = {"*"};
    rule.form = policy::DisclosureForm::kExact;
    policy.AddRule(rule);
    (void)src_->mutable_policies()->AddPolicy(std::move(policy));
    (void)src_->mutable_rbac()->AddRole("r");
    (void)src_->mutable_rbac()->AssignRole("u", "r");
    (void)src_->mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");
  }

  Result<FederatedSource::FragmentResult> Ask(const std::string& body) {
    auto q = PiqlQuery::Parse(
        "<query requester=\"u\" purpose=\"any\" maxLoss=\"1.0\">" + body + "</query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return src_->ExecuteFragment(*q);
  }

  std::unique_ptr<RemoteSource> src_;
};

TEST_F(ScanSourceTest, RowFragmentExaminesOnlyItsCandidates) {
  auto rows = Ask("<select>pid</select><select>age</select>"
                  "<where>age &gt;= 10 AND age &lt; 30</where>");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->table.num_rows(), 20u);
  RemoteSource::ScanStats stats = src_->scan_stats();
  EXPECT_EQ(stats.index_scans, 1u);
  EXPECT_EQ(stats.full_scans, 0u);
  EXPECT_EQ(stats.rows_examined, 20u);
  EXPECT_EQ(stats.rows_gathered, 20u);
  EXPECT_EQ(stats.index_builds, 1u);

  // A residual conjunct runs on the candidates only; the index is reused.
  rows = Ask("<select>pid</select>"
             "<where>age &lt; 30 AND rate &lt;&gt; 0 AND age &gt;= 10</where>");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->table.num_rows(), 17u);  // 14, 21 and 28 have rate 0
  stats = src_->scan_stats();
  EXPECT_EQ(stats.index_scans, 2u);
  EXPECT_EQ(stats.rows_examined, 40u);
  EXPECT_EQ(stats.rows_gathered, 37u);
  EXPECT_EQ(stats.index_builds, 1u);
}

TEST_F(ScanSourceTest, AggregateWorkIsIndependentOfQuerySetSize) {
  // |C| = k and |C| = n - k: both test every row once and gather nothing.
  const size_t k = PreservationModule::Config{}.k;
  for (size_t c : {k, kRows - k}) {
    const RemoteSource::ScanStats before = src_->scan_stats();
    auto count = Ask("<aggregate func=\"SUM\" attribute=\"rate\"/><where>age &lt; " +
                     std::to_string(c) + "</where>");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const RemoteSource::ScanStats after = src_->scan_stats();
    EXPECT_EQ(after.index_scans - before.index_scans, 1u) << "|C| = " << c;
    EXPECT_EQ(after.rows_examined - before.rows_examined, kRows) << "|C| = " << c;
    EXPECT_EQ(after.rows_gathered - before.rows_gathered, 0u) << "|C| = " << c;
  }
  // Grouped aggregates gather, then group.
  const RemoteSource::ScanStats before = src_->scan_stats();
  auto grouped = Ask("<aggregate func=\"COUNT\" attribute=\"pid\"><groupBy>rate</groupBy>"
                     "</aggregate><where>age &lt; 50</where>");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(src_->scan_stats().rows_examined - before.rows_examined, kRows);
  EXPECT_EQ(src_->scan_stats().rows_gathered - before.rows_gathered, 50u);
}

TEST_F(ScanSourceTest, IneligibleWheresTakeTheFullScan) {
  for (const char* where : {"age &lt; 10 OR age &gt; 90", "NOT age &lt; 10",
                            "age &gt;= 10 AND rate &lt; 3", "pid LIKE 'P1%'"}) {
    const RemoteSource::ScanStats before = src_->scan_stats();
    auto rows = Ask(std::string("<select>pid</select><where>") + where + "</where>");
    ASSERT_TRUE(rows.ok()) << where << ": " << rows.status().ToString();
    const RemoteSource::ScanStats after = src_->scan_stats();
    EXPECT_EQ(after.full_scans - before.full_scans, 1u) << where;
    EXPECT_EQ(after.index_scans, before.index_scans) << where;
    EXPECT_EQ(after.rows_examined - before.rows_examined, kRows) << where;
  }
  EXPECT_EQ(src_->scan_stats().index_builds, 0u);
}

// --- Query-set-size restriction in the pipeline ---

TEST(QuerySetRestrictionTest, TrackerSizedAggregateRefused) {
  Rng rng(5);
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"age", ColumnType::kInt64},
                 Column{"rate", ColumnType::kDouble}});
  for (int i = 0; i < 40; ++i) {
    (void)t.AppendRow(Row{Value::Str("P" + std::to_string(i)),
                          Value::Int(20 + i),
                          Value::Real(rng.NextUniform(0, 100))});
  }
  RemoteSource src("hmo", "stats", std::move(t), 1);
  policy::PrivacyPolicy policy("hmo", {});
  policy::PolicyRule rate_rule;
  rate_rule.id = "rate-agg";
  rate_rule.item = {"*", "rate"};
  rate_rule.purposes = {"*"};
  rate_rule.recipients = {"*"};
  rate_rule.form = policy::DisclosureForm::kAggregate;
  policy.AddRule(rate_rule);
  policy::PolicyRule age_rule;
  age_rule.id = "age-exact";
  age_rule.item = {"*", "age"};
  age_rule.purposes = {"*"};
  age_rule.recipients = {"*"};
  age_rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(age_rule);
  (void)src.mutable_policies()->AddPolicy(std::move(policy));
  (void)src.mutable_rbac()->AddRole("r");
  (void)src.mutable_rbac()->AssignRole("u", "r");
  (void)src.mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");

  auto make = [](const std::string& where) {
    return *PiqlQuery::Parse(
        "<query requester=\"u\" purpose=\"any\" maxLoss=\"1.0\">"
        "<aggregate func=\"AVG\" attribute=\"rate\"/>"
        "<where>" + where + "</where></query>");
  };
  // A tracker: AVG over a single individual's row.
  auto tracker = src.ExecuteFragment(make("age = 25"));
  EXPECT_TRUE(tracker.status().IsPrivacyViolation()) << tracker.status().ToString();
  // A complement tracker: everyone but two people.
  auto complement = src.ExecuteFragment(make("age &lt; 58"));
  EXPECT_TRUE(complement.status().IsPrivacyViolation());
  // A healthy aggregate over half the table passes.
  auto fine = src.ExecuteFragment(make("age &lt; 40"));
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(XmlSourceTest, FromXmlRecordsRunsTheFullPipeline) {
  auto src = RemoteSource::FromXmlRecords("xml-clinic", "visits", R"(
    <visits>
      <visit><pid>P1</pid><dept>cardio</dept><cost>120.5</cost></visit>
      <visit><pid>P2</pid><dept>cardio</dept><cost>80.0</cost></visit>
      <visit><pid>P3</pid><dept>onco</dept><cost>310.25</cost></visit>
    </visits>)");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ((*src)->num_rows(), 3u);
  EXPECT_EQ((*src)->schema().ToString(), "pid:STRING, dept:STRING, cost:DOUBLE");
  policy::PrivacyPolicy policy("xml-clinic", {});
  policy::PolicyRule rule;
  rule.id = "all";
  rule.item = {"*", "*"};
  rule.purposes = {"*"};
  rule.recipients = {"*"};
  rule.form = policy::DisclosureForm::kExact;
  policy.AddRule(rule);
  (void)(*src)->mutable_policies()->AddPolicy(std::move(policy));
  (void)(*src)->mutable_rbac()->AddRole("r");
  (void)(*src)->mutable_rbac()->AssignRole("u", "r");
  (void)(*src)->mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");
  auto q = PiqlQuery::Parse(
      R"(<query requester="u" purpose="any" maxLoss="1.0">
           <select>dept</select><where>cost &gt; 100</where></query>)");
  ASSERT_TRUE(q.ok());
  auto result = (*src)->ExecuteFragment(*q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows(), 2u);
}

TEST(XmlSourceTest, MalformedXmlRejected) {
  EXPECT_FALSE(RemoteSource::FromXmlRecords("o", "t", "<broken>").ok());
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(DeterminismTest, SameSeedSameReleasedBytes) {
  // Reproducibility guarantee: rebuild the same source with the same seed
  // and the released (noised/rounded) table is byte-identical.
  auto build_and_query = [] {
    auto tables = core::ClinicalScenario::MakePatientTables(30, 0.5, 7);
    RemoteSource src("hospital", "patients", std::move(tables.hospital),
                     /*seed=*/1234);
    core::ClinicalScenario::ApplyPatientPolicies(&src);
    auto q = PiqlQuery::Parse(
        R"(<query requester="analyst" purpose="research" maxLoss="0.95">
             <select>zip</select><select>diagnosis</select></query>)");
    auto result = src.ExecuteFragment(*q);
    EXPECT_TRUE(result.ok());
    return relational::EncodeTable(result->table);
  };
  EXPECT_EQ(build_and_query(), build_and_query());
}

}  // namespace
}  // namespace source
}  // namespace piye

namespace piye {
namespace source {
namespace {

TEST(RandomSampleQueryModeTest, SampledAggregatesAreStableAndApproximate) {
  Rng data_rng(9);
  Table t(Schema{Column{"pid", ColumnType::kString},
                 Column{"rate", ColumnType::kDouble}});
  double truth = 0.0;
  const size_t n = 500;
  for (size_t i = 0; i < n; ++i) {
    const double v = data_rng.NextUniform(0, 100);
    truth += v;
    (void)t.AppendRow(Row{Value::Str("P" + std::to_string(i)), Value::Real(v)});
  }
  truth /= static_cast<double>(n);
  RemoteSource src("hmo", "stats", std::move(t), /*seed=*/77);
  PreservationModule::Config config;
  config.use_random_sample_queries = true;
  config.sampling_rate = 0.8;
  src.set_preservation_config(config);
  policy::PrivacyPolicy policy("hmo", {});
  policy::PolicyRule rule;
  rule.id = "agg";
  rule.item = {"*", "rate"};
  rule.purposes = {"*"};
  rule.recipients = {"*"};
  rule.form = policy::DisclosureForm::kAggregate;
  policy.AddRule(rule);
  (void)src.mutable_policies()->AddPolicy(std::move(policy));
  (void)src.mutable_rbac()->AddRole("r");
  (void)src.mutable_rbac()->AssignRole("u", "r");
  (void)src.mutable_rbac()->Grant("r", access::Action::kSelect, "*", "*");

  auto q = PiqlQuery::Parse(
      R"(<query requester="u" purpose="any" maxLoss="1.0">
           <aggregate func="AVG" attribute="rate"/></query>)");
  ASSERT_TRUE(q.ok());
  auto first = src.ExecuteFragment(*q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->table.num_rows(), 1u);
  const double answer1 = first->table.Cell(0, 0).AsDouble();
  // Close to the truth (unbiased sample of 80%, plus budget-1.0 rounding is
  // fine-grained)...
  EXPECT_NEAR(answer1, truth, 0.1 * truth);
  // ...and re-asking the identical query yields the identical answer: the
  // averaging attack gains nothing.
  auto second = src.ExecuteFragment(*q);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->table.Cell(0, 0).AsDouble(), answer1);
}

}  // namespace
}  // namespace source
}  // namespace piye
