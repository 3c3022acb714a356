#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "anonymity/hierarchy.h"
#include "anonymity/kanonymity.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "relational/executor.h"
#include "relational/sorted_index.h"
#include "relational/sql.h"
#include "relational/table_codec.h"
#include "source/piql.h"
#include "xml/parser.h"
#include "inference/constraint.h"
#include "inference/interval_solver.h"
#include "inference/nlp_solver.h"
#include "linkage/psi.h"
#include "mediator/privacy_control.h"
#include "mediator/result_integrator.h"
#include "perturb/noise.h"
#include "perturb/reconstruction.h"
#include "reference/dedupref.h"
#include "statdb/audit.h"

namespace piye {
namespace {

// ===========================================================================
// Property-style parameterized sweeps over the library's core invariants.
// ===========================================================================

// --- PSI correctness: every protocol equals the plaintext intersection for
// --- random sets of varying sizes and overlaps.

struct PsiCase {
  int protocol;   // 0 plaintext, 1 hash, 2 dh
  size_t universe;
  double density;
  uint64_t seed;
};

class PsiPropertyTest : public ::testing::TestWithParam<PsiCase> {};

TEST_P(PsiPropertyTest, MatchesGroundTruth) {
  const PsiCase param = GetParam();
  Rng rng(param.seed);
  std::vector<std::string> a, b;
  std::set<std::string> truth;
  for (size_t i = 0; i < param.universe; ++i) {
    const std::string key = "k" + std::to_string(i);
    const bool in_a = rng.NextBernoulli(param.density);
    const bool in_b = rng.NextBernoulli(param.density);
    if (in_a) a.push_back(key);
    if (in_b) b.push_back(key);
    if (in_a && in_b) truth.insert(key);
  }
  std::unique_ptr<linkage::PsiProtocol> protocol;
  switch (param.protocol) {
    case 0:
      protocol = std::make_unique<linkage::PlaintextJoin>();
      break;
    case 1:
      protocol = std::make_unique<linkage::HashPsi>("s");
      break;
    default:
      protocol = std::make_unique<linkage::DhPsi>(param.seed);
  }
  auto result = protocol->Intersect(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::set<std::string>(result->begin(), result->end()), truth);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PsiPropertyTest,
    ::testing::Values(PsiCase{0, 50, 0.5, 1}, PsiCase{1, 50, 0.5, 2},
                      PsiCase{2, 50, 0.5, 3}, PsiCase{2, 200, 0.1, 4},
                      PsiCase{2, 200, 0.9, 5}, PsiCase{1, 500, 0.3, 6},
                      PsiCase{2, 17, 1.0, 7}, PsiCase{2, 64, 0.0, 8}));

// --- k-anonymity invariant: for every k and seed, the anonymizer's output
// --- really is k-anonymous and suppression stays within bounds.

struct KanonCase {
  size_t k;
  uint64_t seed;
  size_t rows;
};

class KanonPropertyTest : public ::testing::TestWithParam<KanonCase> {};

TEST_P(KanonPropertyTest, OutputIsAlwaysKAnonymous) {
  const KanonCase param = GetParam();
  Rng rng(param.seed);
  relational::Table t(relational::Schema{
      relational::Column{"age", relational::ColumnType::kInt64},
      relational::Column{"zip", relational::ColumnType::kInt64}});
  for (size_t i = 0; i < param.rows; ++i) {
    (void)t.AppendRow({relational::Value::Int(
                           static_cast<int64_t>(20 + rng.NextBounded(60))),
                       relational::Value::Int(
                           static_cast<int64_t>(10000 + rng.NextBounded(200)))});
  }
  const anonymity::KAnonymizer anonymizer(
      {{"age",
        std::make_shared<anonymity::NumericHierarchy>(0.0,
                                                      std::vector<double>{5, 20, 50})},
       {"zip", std::make_shared<anonymity::NumericHierarchy>(
                   0.0, std::vector<double>{50, 200})}},
      param.k, /*max_suppression=*/param.rows / 10);
  auto result = anonymizer.Anonymize(t);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto check = anonymity::IsKAnonymous(result->table, {"age", "zip"}, param.k);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(*check) << "k=" << param.k << " seed=" << param.seed;
  EXPECT_LE(result->suppressed_rows, param.rows / 10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KanonPropertyTest,
                         ::testing::Values(KanonCase{2, 1, 60}, KanonCase{3, 2, 60},
                                           KanonCase{5, 3, 80}, KanonCase{10, 4, 120},
                                           KanonCase{2, 5, 30}, KanonCase{4, 6, 200},
                                           KanonCase{25, 7, 100}));

// --- Interval propagation soundness: the true solution always stays inside
// --- the propagated box, for random feasible systems.

class PropagationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationPropertyTest, OuterBoxContainsTruth) {
  Rng rng(GetParam());
  const size_t n = 6;
  // A hidden truth, then constraints generated *from* the truth so the
  // system is feasible by construction.
  std::vector<double> truth(n);
  inference::ConstraintSystem sys;
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.NextUniform(0.0, 100.0);
    sys.AddVariable("x" + std::to_string(i), 0.0, 100.0);
  }
  for (int c = 0; c < 4; ++c) {
    // Random subset mean constraint.
    std::vector<size_t> vars;
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.6)) {
        vars.push_back(i);
        sum += truth[i];
      }
    }
    if (vars.empty()) continue;
    sys.AddMeanConstraint(vars, sum / static_cast<double>(vars.size()), 0.05);
  }
  // One stddev constraint over everything.
  double mean = 0.0;
  for (double x : truth) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double x : truth) var += (x - mean) * (x - mean);
  sys.AddStdDevConstraint({0, 1, 2, 3, 4, 5}, mean,
                          std::sqrt(var / static_cast<double>(n)), 0.05);

  inference::IntervalPropagator propagator(&sys);
  auto box = propagator.Propagate();
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(truth[i], (*box)[i].lo - 1e-6) << i;
    EXPECT_LE(truth[i], (*box)[i].hi + 1e-6) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropagationPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- NLP attained bounds are inner bounds: they never extend beyond the
// --- sound outer box, and the attack interval always contains the truth.

class NlpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NlpPropertyTest, AttainedBoundsInsideOuterBox) {
  Rng rng(GetParam() * 101);
  inference::ConstraintSystem sys;
  const size_t n = 4;
  std::vector<double> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.NextUniform(10.0, 90.0);
    sys.AddVariable("x" + std::to_string(i), 0.0, 100.0);
  }
  double sum = 0.0;
  for (double x : truth) sum += x;
  sys.AddMeanConstraint({0, 1, 2, 3}, sum / 4.0, 0.1);
  ASSERT_TRUE(sys.FixVariable(0, truth[0]).ok());

  inference::IntervalPropagator propagator(&sys);
  auto outer = propagator.Propagate();
  ASSERT_TRUE(outer.ok());
  inference::NlpBoundSolver solver(&sys, GetParam());
  for (size_t i = 1; i < n; ++i) {
    auto bound = solver.Bound(i);
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(bound->feasible);
    EXPECT_GE(bound->lower, (*outer)[i].lo - 0.5);
    EXPECT_LE(bound->upper, (*outer)[i].hi + 0.5);
    EXPECT_LE(bound->lower, truth[i] + 0.5);
    EXPECT_GE(bound->upper, truth[i] - 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NlpPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- Chin audit safety: under random query streams the auditor never lets a
// --- record become exactly determinable.

class AuditPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AuditPropertyTest, NoRecordEverDeterminable) {
  Rng rng(GetParam() * 7);
  relational::Table t(relational::Schema{
      relational::Column{"id", relational::ColumnType::kInt64},
      relational::Column{"v", relational::ColumnType::kDouble}});
  const size_t n = 12;
  for (size_t i = 0; i < n; ++i) {
    (void)t.AppendRow({relational::Value::Int(static_cast<int64_t>(i)),
                       relational::Value::Real(rng.NextUniform(0, 100))});
  }
  statdb::SumAuditor auditor(n);
  for (int q = 0; q < 30; ++q) {
    // Random subset as an IN-list predicate.
    std::vector<relational::Value> ids;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.4)) {
        ids.push_back(relational::Value::Int(static_cast<int64_t>(i)));
      }
    }
    if (ids.empty()) continue;
    statdb::AggregateQuery query;
    query.func = relational::AggFunc::kSum;
    query.column = "v";
    query.predicate = relational::Expression::In(
        relational::Expression::ColumnRef("id"), ids);
    (void)auditor.Answer(query, t);  // refusals are fine; leaks are not
    EXPECT_TRUE(auditor.DeterminableRecords().empty())
        << "after query " << q << " with " << ids.size() << " ids";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AuditPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- Reconstruction quality improves with sample size (consistency).

class ReconstructionPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, double>> {};

TEST_P(ReconstructionPropertyTest, ErrorShrinksWithData) {
  const auto [n, sigma] = GetParam();
  Rng rng(n + static_cast<uint64_t>(sigma));
  std::vector<double> original;
  for (size_t i = 0; i < n; ++i) {
    original.push_back(i % 2 == 0 ? rng.NextGaussian(30, 4) : rng.NextGaussian(70, 4));
  }
  const perturb::AdditiveNoise noise(perturb::AdditiveNoise::Distribution::kGaussian,
                                     sigma);
  const auto perturbed = noise.Perturb(original, &rng);
  perturb::DistributionReconstructor recon(0, 100, 20);
  auto f = recon.Reconstruct(perturbed, noise);
  ASSERT_TRUE(f.ok());
  const auto truth = recon.Bucketize(original);
  const double err_recon =
      perturb::DistributionReconstructor::L1Distance(truth, *f);
  const double err_naive =
      perturb::DistributionReconstructor::L1Distance(truth, recon.Bucketize(perturbed));
  // The invariant: reconstruction always beats reading the perturbed
  // histogram directly, and stays under the trivial L1 bound of 2.
  EXPECT_LT(err_recon, err_naive);
  EXPECT_LT(err_recon, 1.2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReconstructionPropertyTest,
                         ::testing::Values(std::make_pair<size_t, double>(500, 10.0),
                                           std::make_pair<size_t, double>(2000, 10.0),
                                           std::make_pair<size_t, double>(2000, 25.0),
                                           std::make_pair<size_t, double>(5000, 25.0)));

// --- Privacy-control loss combination is monotone and bounded.

class CombineLossPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CombineLossPropertyTest, MonotoneAndBounded) {
  Rng rng(GetParam());
  std::vector<double> losses;
  double prev = 0.0;
  for (int i = 0; i < 10; ++i) {
    losses.push_back(rng.NextDouble());
    const double combined = mediator::PrivacyControl::CombineLosses(losses);
    EXPECT_GE(combined, prev - 1e-12);          // adding a result never helps
    EXPECT_GE(combined, *std::max_element(losses.begin(), losses.end()) - 1e-12);
    EXPECT_LE(combined, 1.0 + 1e-12);
    prev = combined;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CombineLossPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace piye

namespace piye {
namespace {

// --- Grammar round-trips under random generation ---

relational::ExprPtr RandomExpr(Rng* rng, int depth) {
  using relational::Expression;
  using relational::Value;
  const char* columns[] = {"a", "b", "c"};
  if (depth <= 0 || rng->NextBernoulli(0.3)) {
    if (rng->NextBernoulli(0.5)) {
      return Expression::ColumnRef(columns[rng->NextBounded(3)]);
    }
    switch (rng->NextBounded(3)) {
      case 0:
        return Expression::Literal(Value::Int(static_cast<int64_t>(
            rng->NextBounded(100))));
      case 1:
        return Expression::Literal(Value::Real(
            static_cast<double>(rng->NextBounded(1000)) / 8.0));
      default:
        return Expression::Literal(Value::Str("s" + std::to_string(rng->NextBounded(5))));
    }
  }
  const Expression::Op ops[] = {Expression::Op::kEq,  Expression::Op::kNe,
                                Expression::Op::kLt,  Expression::Op::kLe,
                                Expression::Op::kGt,  Expression::Op::kGe,
                                Expression::Op::kAnd, Expression::Op::kOr,
                                Expression::Op::kAdd, Expression::Op::kSub,
                                Expression::Op::kMul};
  if (rng->NextBernoulli(0.1)) {
    return Expression::Not(RandomExpr(rng, depth - 1));
  }
  return Expression::Binary(ops[rng->NextBounded(11)], RandomExpr(rng, depth - 1),
                            RandomExpr(rng, depth - 1));
}

class ExprRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprRoundTripTest, ToStringParsesBackToSameEvaluation) {
  Rng rng(GetParam() * 31 + 7);
  const relational::Schema schema{
      relational::Column{"a", relational::ColumnType::kInt64},
      relational::Column{"b", relational::ColumnType::kDouble},
      relational::Column{"c", relational::ColumnType::kString}};
  for (int trial = 0; trial < 50; ++trial) {
    const auto expr = RandomExpr(&rng, 4);
    auto reparsed = relational::ParseExpression(expr->ToString());
    ASSERT_TRUE(reparsed.ok()) << expr->ToString() << " : "
                               << reparsed.status().ToString();
    // Evaluate both on random rows; results must agree (or both error).
    for (int r = 0; r < 10; ++r) {
      const relational::Row row{
          relational::Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
          relational::Value::Real(rng.NextUniform(0, 100)),
          relational::Value::Str("s" + std::to_string(rng.NextBounded(5)))};
      auto v1 = expr->Evaluate(row, schema);
      auto v2 = (*reparsed)->Evaluate(row, schema);
      ASSERT_EQ(v1.ok(), v2.ok()) << expr->ToString();
      if (v1.ok()) {
        EXPECT_TRUE(*v1 == *v2 ||
                    (v1->is_numeric() && v2->is_numeric() &&
                     std::fabs(v1->AsDouble() - v2->AsDouble()) < 1e-9))
            << expr->ToString() << " -> " << v1->ToString() << " vs "
            << v2->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExprRoundTripTest, ::testing::Range<uint64_t>(1, 7));

// --- PIQL text round trip: a query rendered to its XML form and parsed
// back is the same query, field for field and literal bit for literal bit,
// as its canonical key witnesses. Query texts are generated from a seed and
// cover quote-bearing, NULL, bool, integral-double and random-double
// literals, IN lists, and random maxLoss values.

std::string RandomDoubleText(Rng* rng) {
  // Fixed notation: the SQL lexer reads no exponent.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", static_cast<int>(rng->NextBounded(18)),
                rng->NextUniform(0, 1000));
  std::string text = buf;
  if (text.find('.') == std::string::npos) text += ".0";
  return text;
}

std::string RandomLiteralText(Rng* rng) {
  static const char* kQuoted[] = {"'O''Brien'", "'a'' OR diagnosis = ''b'", "''''",
                                  "''", "'it''s ''quoted'''"};
  switch (rng->NextBounded(7)) {
    case 0:
      return kQuoted[rng->NextBounded(5)];
    case 1:
      return rng->NextBernoulli(0.5) ? "NULL" : "null";
    case 2:
      return rng->NextBernoulli(0.5) ? "TRUE" : "FALSE";
    case 3:
      return std::to_string(rng->NextBounded(50)) + ".0";  // integral double
    case 4:
      return RandomDoubleText(rng);
    case 5:
      return std::to_string(rng->NextBounded(1000));
    default:
      return "'s" + std::to_string(rng->NextBounded(5)) + "'";
  }
}

/// A WHERE clause as XML element text (comparison operators escaped).
std::string RandomWhereText(Rng* rng, int depth) {
  static const char* kColumns[] = {"diagnosis", "age", "dob"};
  if (depth <= 0 || rng->NextBernoulli(0.25)) {
    const std::string column = kColumns[rng->NextBounded(3)];
    if (rng->NextBernoulli(0.2)) {
      std::string in = column + " IN (";
      const uint64_t n = 1 + rng->NextBounded(3);
      for (uint64_t i = 0; i < n; ++i) {
        if (i > 0) in += ", ";
        in += RandomLiteralText(rng);
      }
      return in + ")";
    }
    static const char* kCompare[] = {"=",    "&lt;&gt;", "&lt;", "&lt;=",
                                     "&gt;", "&gt;=",    "LIKE"};
    return column + " " + kCompare[rng->NextBounded(7)] + " " + RandomLiteralText(rng);
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return "NOT (" + RandomWhereText(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomWhereText(rng, depth - 1) + ") OR (" +
             RandomWhereText(rng, depth - 1) + ")";
    case 2:
      return "age + " + RandomLiteralText(rng) + " &gt; " + RandomDoubleText(rng);
    default:
      return "(" + RandomWhereText(rng, depth - 1) + ") AND (" +
             RandomWhereText(rng, depth - 1) + ")";
  }
}

std::string RandomQueryText(Rng* rng) {
  char loss[40];
  if (rng->NextBernoulli(0.2)) {
    std::snprintf(loss, sizeof(loss), "0.29999999");
  } else {
    std::snprintf(loss, sizeof(loss), "%.17g", rng->NextUniform(0, 1));
  }
  std::string text = "<query requester=\"r" + std::to_string(rng->NextBounded(4)) +
                     "\" purpose=\"healthcare\" maxLoss=\"" + loss + "\">";
  text += "<target path=\"//patient\"/>";
  if (rng->NextBernoulli(0.3)) {
    text += "<aggregate func=\"AVG\" attribute=\"age\"><groupBy>zip</groupBy></aggregate>";
  } else {
    text += "<select>patient_id</select><select>diagnosis</select>";
  }
  if (rng->NextBernoulli(0.9)) {
    text += "<where>" + RandomWhereText(rng, 3) + "</where>";
  }
  return text + "</query>";
}

class PiqlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PiqlRoundTripTest, SerializedQueryParsesBackToTheSameCanonicalKey) {
  Rng rng(GetParam() * 131 + 17);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string text = RandomQueryText(&rng);
    auto query = source::PiqlQuery::Parse(text);
    ASSERT_TRUE(query.ok()) << text << " : " << query.status().ToString();
    const std::string rendered = xml::Serialize(*query->ToXml(), /*indent=*/-1);
    auto reparsed = source::PiqlQuery::Parse(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered << " : " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->CanonicalKey(), query->CanonicalKey())
        << text << "\n  rendered as " << rendered;
    // Rendering is a fixed point after one round.
    EXPECT_EQ(xml::Serialize(*reparsed->ToXml(), /*indent=*/-1), rendered);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PiqlRoundTripTest, ::testing::Range<uint64_t>(1, 9));

TEST(PiqlCanonicalKeyTest, EveryFieldAndLiteralBitCounts) {
  auto key = [](const std::string& attrs, const std::string& body) {
    auto q = source::PiqlQuery::Parse("<query " + attrs + ">" + body + "</query>");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? q->CanonicalKey() : std::string();
  };
  const std::string attrs = "requester=\"r\" purpose=\"p\" maxLoss=\"0.3\"";
  const std::string where = "<where>a = 5</where>";
  const std::string base = key(attrs, "<select>a</select>" + where);
  // Formatting is not identity.
  EXPECT_EQ(base, key(attrs, "<select> a </select><where>(a=5)</where>"));
  const std::vector<std::string> different = {
      key("requester=\"s\" purpose=\"p\" maxLoss=\"0.3\"", "<select>a</select>" + where),
      key("requester=\"r\" purpose=\"q\" maxLoss=\"0.3\"", "<select>a</select>" + where),
      key("requester=\"r\" purpose=\"p\" maxLoss=\"0.29999999\"",
          "<select>a</select>" + where),
      key(attrs, "<target path=\"//p\"/><select>a</select>" + where),
      key(attrs, "<select>a</select><select>b</select>" + where),
      key(attrs, "<select>a</select><where>a = 5.0</where>"),
      key(attrs, "<select>a</select><where>a = '5'</where>"),
      key(attrs, "<select>a</select><where>a &lt;&gt; 5</where>"),
      key(attrs, "<select>a</select>"),
      key(attrs, "<select>a</select>" + where + "<aggregate func=\"COUNT\" attribute=\"a\"/>"),
  };
  std::set<std::string> keys(different.begin(), different.end());
  keys.insert(base);
  EXPECT_EQ(keys.size(), different.size() + 1);
}

class TableCodecRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableCodecRoundTripTest, EncodeDecodeIsIdentity) {
  Rng rng(GetParam() * 97);
  relational::Table t(relational::Schema{
      relational::Column{"id", relational::ColumnType::kInt64},
      relational::Column{"name", relational::ColumnType::kString},
      relational::Column{"score", relational::ColumnType::kDouble},
      relational::Column{"flag", relational::ColumnType::kBool}});
  const char* nasty[] = {"plain", "with space", "a<b&c>'d\"", "", "123",
                         "trailing  "};
  for (int i = 0; i < 30; ++i) {
    relational::Row row;
    row.push_back(rng.NextBernoulli(0.1)
                      ? relational::Value::Null()
                      : relational::Value::Int(static_cast<int64_t>(rng.Next() % 1000)));
    row.push_back(rng.NextBernoulli(0.1)
                      ? relational::Value::Null()
                      : relational::Value::Str(nasty[rng.NextBounded(6)]));
    row.push_back(relational::Value::Real(rng.NextUniform(-1e6, 1e6)));
    row.push_back(relational::Value::Boolean(rng.NextBernoulli(0.5)));
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  const std::string bytes = relational::EncodeTable(t);
  persist::Decoder dec(bytes);
  auto back = relational::DecodeTable(&dec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(dec.exhausted());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->schema(), t.schema());
  // Exact, whitespace and double bits included.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      std::string want, got;
      t.col(c).EncodeCell(r, &want);
      back->col(c).EncodeCell(r, &got);
      EXPECT_EQ(want, got) << r << "," << c;
    }
  }
  EXPECT_EQ(relational::EncodeTable(*back), bytes);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TableCodecRoundTripTest,
                         ::testing::Range<uint64_t>(1, 6));

// --- Whole-system metamorphic invariants over random PIQL queries ---

class SystemInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SystemInvariantTest, DeniedColumnsNeverLeakWhateverTheQuery) {
  Rng rng(GetParam() * 1009);
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  core::PrivateIye system(options);
  auto tables = core::ClinicalScenario::MakePatientTables(25, 0.5, GetParam());
  auto* hospital =
      system.AddSource("hospital", "patients", std::move(tables.hospital), 1);
  auto* pharmacy = system.AddSource("pharmacy", "rx", std::move(tables.pharmacy), 2);
  auto* lab = system.AddSource("lab", "tests", std::move(tables.lab), 3);
  core::ClinicalScenario::ApplyPatientPolicies(hospital);
  core::ClinicalScenario::ApplyPatientPolicies(pharmacy);
  core::ClinicalScenario::ApplyPatientPolicies(lab);
  ASSERT_TRUE(system.Initialize().ok());

  const char* attributes[] = {"name",      "patientName", "dob",  "birthdate",
                              "diagnosis", "drug",        "test", "zip",
                              "sex",       "patient_id"};
  const char* purposes[] = {"research", "treatment", "marketing", "any"};
  for (int trial = 0; trial < 25; ++trial) {
    source::PiqlQuery q;
    q.requester = "analyst";
    q.purpose = purposes[rng.NextBounded(4)];
    q.max_information_loss = rng.NextUniform(0.3, 1.0);
    const size_t n_select = 1 + rng.NextBounded(4);
    for (size_t s = 0; s < n_select; ++s) {
      q.select.push_back(attributes[rng.NextBounded(10)]);
    }
    auto result = system.Query(q, {.allow_warehouse = false});
    if (!result.ok()) continue;  // refusals are always acceptable
    for (const auto& col : result->table().schema().columns()) {
      // Patient names are denied at every source; they must never appear,
      // no matter how the requester phrases the query.
      EXPECT_EQ(strings::ToLower(col.name).find("name"), std::string::npos)
          << "query leaked column " << col.name;
    }
    // Raw zips (5-digit ints) must never appear either: zip is
    // generalized-only.
    auto zip_idx = result->table().schema().IndexOf("zip");
    if (zip_idx.ok()) {
      EXPECT_EQ(result->table().schema().column(*zip_idx).type,
                relational::ColumnType::kString);
    }
    // Marketing must never succeed.
    EXPECT_NE(q.purpose, std::string("marketing"))
        << "marketing query released data";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SystemInvariantTest, ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace piye

namespace piye {
namespace {

// --- Typed dedup kernel vs the display-string oracle ---

using relational::ColumnType;
using relational::ColumnVector;
using relational::Value;

/// A double with the given bit pattern (NaN payloads included).
double FromBits(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// A cell from a small domain, so rows repeat. Strings exclude the
/// oracle's two collision shapes: '\x1f' and "NULL".
Value RandomDedupCell(Rng* rng, ColumnType type) {
  if (rng->NextBernoulli(0.15)) return Value::Null();
  constexpr int64_t kBig = int64_t{1} << 53;
  switch (type) {
    case ColumnType::kInt64: {
      const int64_t ints[] = {0, 1, -1, kBig, kBig + 1, kBig + 2, -kBig - 1,
                              std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<int64_t>::min()};
      return Value::Int(ints[rng->NextBounded(9)]);
    }
    case ColumnType::kDouble: {
      const double reals[] = {0.0, -0.0, 1.5, -1.5, 9007199254740992.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN(),
                              FromBits(0x7ff8000000000001ULL),
                              FromBits(0xfff0000000000002ULL),
                              std::numeric_limits<double>::infinity()};
      return Value::Real(reals[rng->NextBounded(10)]);
    }
    case ColumnType::kString: {
      const char* strs[] = {"", "a", "b", "ab", " a", "null", "nan", "-0", "x y"};
      return Value::Str(strs[rng->NextBounded(9)]);
    }
    case ColumnType::kBool:
      return Value::Boolean(rng->NextBernoulli(0.5));
  }
  return Value::Null();
}

struct DedupColumn {
  const char* name;
  ColumnType type;
};

/// The column pool: `mixed` is INT64 or DOUBLE per source, so the union
/// coerces it (INT64 widens into a DOUBLE column; DOUBLE into an INT64
/// column is NULL).
const DedupColumn kDedupPool[] = {{"id", ColumnType::kInt64},
                                  {"name", ColumnType::kString},
                                  {"score", ColumnType::kDouble},
                                  {"flag", ColumnType::kBool},
                                  {"mixed", ColumnType::kInt64}};

/// Random sources drawn from shared prototype rows (so duplicates cross
/// sources), each with a random subset and order of the pool's columns.
std::vector<relational::dedupref::Source> RandomSources(Rng* rng) {
  std::vector<std::map<std::string, Value>> protos(1 + rng->NextBounded(10));
  for (auto& p : protos) {
    for (const auto& c : kDedupPool) {
      const bool real = c.name == std::string("mixed") && rng->NextBernoulli(0.3);
      p[c.name] = RandomDedupCell(rng, real ? ColumnType::kDouble : c.type);
    }
  }
  std::vector<relational::dedupref::Source> sources(1 + rng->NextBounded(4));
  for (size_t s = 0; s < sources.size(); ++s) {
    sources[s].owner = "s" + std::to_string(s);
    relational::Schema schema;
    for (const auto& c : kDedupPool) {
      if (!rng->NextBernoulli(0.7)) continue;
      const bool real = c.name == std::string("mixed") && rng->NextBernoulli(0.5);
      schema.AddColumn({c.name, real ? ColumnType::kDouble : c.type});
    }
    relational::Table t(schema);
    const size_t rows = rng->NextBernoulli(0.2) ? 0 : rng->NextBounded(40);
    for (size_t r = 0; r < rows; ++r) {
      std::map<std::string, Value> cells = protos[rng->NextBounded(protos.size())];
      if (rng->NextBernoulli(0.2)) {
        const DedupColumn& c = kDedupPool[rng->NextBounded(5)];
        cells[c.name] = RandomDedupCell(rng, c.type);
      }
      relational::Row row;
      for (const auto& col : schema.columns()) row.push_back(cells[col.name]);
      t.AppendRowUnchecked(row);
    }
    sources[s].table = std::move(t);
  }
  return sources;
}

class DedupDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DedupDifferentialTest, IntegrateMatchesDisplayStringOracle) {
  Rng rng(GetParam() * 7919 + 3);
  match::MediatedSchema mediated;
  const mediator::ResultIntegrator integrator(&mediated);
  const char* key_names[] = {"id", "name", "score", "flag", "mixed", "_source", "nope"};
  for (int trial = 0; trial < 60; ++trial) {
    const auto sources = RandomSources(&rng);
    std::vector<std::string> keys;
    if (rng.NextBernoulli(0.5)) {
      const size_t n = 1 + rng.NextBounded(2);
      for (size_t k = 0; k < n; ++k) keys.push_back(key_names[rng.NextBounded(7)]);
    }
    std::vector<mediator::ResultIntegrator::SourceResult> results;
    for (const auto& s : sources) results.push_back({s.owner, s.table});
    auto got = integrator.Integrate(results, keys);
    auto want = relational::dedupref::Integrate(sources, keys);
    ASSERT_EQ(got.ok(), want.ok()) << trial;
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(relational::EncodeTable(*got), relational::EncodeTable(*want))
        << "trial " << trial << "\ngot:\n"
        << got->ToString() << "want:\n"
        << want->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DedupDifferentialTest, ::testing::Range<uint64_t>(1, 9));

// --- Bulk Gather/AppendColumn vs per-cell appends ---

/// A random column with NULLs; string columns also get overwrites that
/// leave arena slack (a longer value is appended, the old bytes stay).
ColumnVector RandomColumn(Rng* rng, ColumnType type, size_t n) {
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) col.AppendValue(RandomDedupCell(rng, type));
  for (size_t k = 0; n > 0 && k < n / 3; ++k) {
    const size_t i = rng->NextBounded(n);
    if (rng->NextBernoulli(0.2)) {
      col.SetNull(i);
    } else if (type == ColumnType::kString) {
      col.Set(i, Value::Str(std::string(rng->NextBounded(12), 'q')));
    } else {
      col.Set(i, RandomDedupCell(rng, type));
    }
  }
  return col;
}

std::string ColumnBytes(const ColumnVector& col) {
  relational::Table t;
  t.AddColumn({"c", col.type()}, col);
  return relational::EncodeTable(t);
}

/// Per-cell appends of `src`'s rows `sel` onto a copy of `prefix`.
ColumnVector PerCell(const ColumnVector& prefix, const ColumnVector& src,
                     const std::vector<uint32_t>& sel) {
  ColumnVector out = prefix;
  for (uint32_t i : sel) out.AppendValue(src.ValueAt(i));
  return out;
}

void ExpectZeroNullSlots(const ColumnVector& col) {
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) continue;
    switch (col.type()) {
      case ColumnType::kInt64:
        EXPECT_EQ(col.IntAt(i), 0);
        break;
      case ColumnType::kDouble:
        EXPECT_EQ(col.RealAt(i), 0.0);
        break;
      case ColumnType::kBool:
        EXPECT_FALSE(col.BoolAt(i));
        break;
      case ColumnType::kString:
        EXPECT_TRUE(col.StrAt(i).empty());
        break;
    }
  }
}

class BulkColumnCopyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkColumnCopyTest, GatherAndAppendColumnMatchPerCellAppends) {
  Rng rng(GetParam() * 6151 + 5);
  const ColumnType types[] = {ColumnType::kInt64, ColumnType::kDouble,
                              ColumnType::kString, ColumnType::kBool};
  for (int trial = 0; trial < 40; ++trial) {
    const ColumnType type = types[rng.NextBounded(4)];
    const ColumnVector src = RandomColumn(&rng, type, rng.NextBounded(200));
    // Prefix lengths off a word boundary shift the appended validity bits.
    const ColumnVector prefix = RandomColumn(&rng, type, rng.NextBounded(130));
    std::vector<uint32_t> sel(src.size() == 0 ? 0 : rng.NextBounded(300));
    for (uint32_t& s : sel) s = static_cast<uint32_t>(rng.NextBounded(src.size()));
    std::vector<uint32_t> all(src.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);

    const ColumnVector gathered = src.Gather(sel.data(), sel.size());
    EXPECT_EQ(ColumnBytes(gathered), ColumnBytes(PerCell(ColumnVector(type), src, sel)));
    ExpectZeroNullSlots(gathered);

    ColumnVector appended = prefix;
    appended.AppendColumn(src);
    EXPECT_EQ(ColumnBytes(appended), ColumnBytes(PerCell(prefix, src, all)));
    ExpectZeroNullSlots(appended);

    ColumnVector gathered_onto = prefix;
    gathered_onto.AppendGather(src, sel.data(), sel.size());
    EXPECT_EQ(ColumnBytes(gathered_onto), ColumnBytes(PerCell(prefix, src, sel)));

    ColumnVector doubled = src;
    doubled.AppendColumn(doubled);
    std::vector<uint32_t> twice = all;
    twice.insert(twice.end(), all.begin(), all.end());
    EXPECT_EQ(ColumnBytes(doubled), ColumnBytes(PerCell(ColumnVector(type), src, twice)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BulkColumnCopyTest, ::testing::Range<uint64_t>(1, 7));

// --- Index scan vs the full scan ---

using relational::Expression;
using relational::ExprPtr;
using relational::Selection;

/// Every type, NULLs in each, and small domains so duplicates are common.
/// `i` holds INT64s on both sides of 2^53, `j` sums that overflow, `s`
/// strings that share prefixes, and `d` sometimes a NaN.
const DedupColumn kScanPool[] = {{"i", ColumnType::kInt64},
                                 {"d", ColumnType::kDouble},
                                 {"s", ColumnType::kString},
                                 {"b", ColumnType::kBool},
                                 {"j", ColumnType::kInt64}};
constexpr int64_t kTwo53 = int64_t{1} << 53;
const char* const kScanStrings[] = {"",      "19",         "1970",       "1970-01",
                                    "1970-1", "1970-01-01", "1970-01-02", "1971",
                                    "a",     "NULL",       "\x1f"};

Value ScanCell(Rng* rng, const DedupColumn& c, bool nan) {
  if (rng->NextBernoulli(0.15)) return Value::Null();
  switch (c.type) {
    case ColumnType::kInt64: {
      if (c.name == std::string("j")) {
        const int64_t js[] = {0, 1, -5, std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<int64_t>::max() - 1};
        return Value::Int(js[rng->NextBounded(5)]);
      }
      const int64_t is[] = {-3, -1, 0, 1, 2, 5, kTwo53 - 1, kTwo53, kTwo53 + 1,
                            kTwo53 + 2, -kTwo53 - 1};
      return Value::Int(is[rng->NextBounded(11)]);
    }
    case ColumnType::kDouble: {
      if (nan && rng->NextBernoulli(0.1)) {
        return Value::Real(std::numeric_limits<double>::quiet_NaN());
      }
      const double ds[] = {-2.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1e300,
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity()};
      return Value::Real(ds[rng->NextBounded(9)]);
    }
    case ColumnType::kString:
      return Value::Str(kScanStrings[rng->NextBounded(11)]);
    case ColumnType::kBool:
      return Value::Boolean(rng->NextBernoulli(0.5));
  }
  return Value::Null();
}

/// A non-NULL, non-NaN literal of type rank 1 (BOOL), 2 (numeric) or 3.
Value ScanLiteral(Rng* rng, int rank) {
  if (rank == 1) return Value::Boolean(rng->NextBernoulli(0.5));
  if (rank == 3) {
    if (rng->NextBernoulli(0.2)) return Value::Str("1970-01-01x");
    return Value::Str(kScanStrings[rng->NextBounded(11)]);
  }
  if (rng->NextBernoulli(0.5)) {
    const int64_t is[] = {-1, 0, 1, 2, 5, kTwo53, kTwo53 + 1, -kTwo53 - 1};
    return Value::Int(is[rng->NextBounded(8)]);
  }
  // Doubles above 2^53 compare against INT64 cells through the double cast.
  const double ds[] = {0.5, 1.0, -0.0, 2.0, 9007199254740992.0, 9007199254740994.0,
                       -9007199254740994.0, 1e300};
  return Value::Real(ds[rng->NextBounded(8)]);
}

const Expression::Op kBoundOps[] = {Expression::Op::kEq, Expression::Op::kLt,
                                    Expression::Op::kLe, Expression::Op::kGt,
                                    Expression::Op::kGe};

const DedupColumn& AnyScanColumn(Rng* rng) { return kScanPool[rng->NextBounded(5)]; }

/// `column op literal` with a literal of the column's rank, either way round.
ExprPtr BoundOn(Rng* rng, const DedupColumn& c) {
  const Expression::Op op = kBoundOps[rng->NextBounded(5)];
  ExprPtr col = Expression::ColumnRef(c.name);
  ExprPtr lit = Expression::Literal(ScanLiteral(rng, relational::TypeRank(c.type)));
  return rng->NextBernoulli(0.3) ? Expression::Binary(op, lit, col)
                                 : Expression::Binary(op, col, lit);
}

/// A conjunct that cannot raise and is not a bound.
ExprPtr ResidualConjunct(Rng* rng) {
  const DedupColumn& c = AnyScanColumn(rng);
  ExprPtr col = Expression::ColumnRef(c.name);
  switch (rng->NextBounded(9)) {
    case 0:
      return Expression::Binary(
          Expression::Op::kNe, col,
          Expression::Literal(ScanLiteral(rng, relational::TypeRank(c.type))));
    case 1: {
      std::vector<Value> values;
      for (size_t k = 0, n = 1 + rng->NextBounded(3); k < n; ++k) {
        const int rank = 1 + static_cast<int>(rng->NextBounded(3));
        const bool null = rng->NextBernoulli(0.2);
        values.push_back(null ? Value::Null() : ScanLiteral(rng, rank));
      }
      return Expression::In(col, std::move(values));
    }
    case 2:
      return Expression::Binary(Expression::Op::kOr, BoundOn(rng, c),
                                BoundOn(rng, AnyScanColumn(rng)));
    case 3:
      return Expression::Not(BoundOn(rng, c));
    case 4:
      return Expression::Binary(kBoundOps[rng->NextBounded(5)], col,
                                Expression::ColumnRef(AnyScanColumn(rng).name));
    case 5:  // a literal of another rank: constant on every non-NULL cell
      return Expression::Binary(
          kBoundOps[rng->NextBounded(5)], col,
          Expression::Literal(ScanLiteral(rng, relational::TypeRank(c.type) % 3 + 1)));
    case 6:
      return col;
    case 7:  // a constant: TRUE, FALSE, 0, '' and the like
      return Expression::Literal(
          ScanLiteral(rng, 1 + static_cast<int>(rng->NextBounded(3))));
    default:
      return Expression::Binary(kBoundOps[rng->NextBounded(5)], col,
                                Expression::Literal(Value::Null()));
  }
}

/// ANDs `parts` in a random order and tree shape.
ExprPtr RandomAndTree(Rng* rng, std::vector<ExprPtr> parts) {
  rng->Shuffle(&parts);
  while (parts.size() > 1) {
    const size_t i = rng->NextBounded(parts.size() - 1);
    parts[i] = Expression::And(parts[i], parts[i + 1]);
    parts.erase(parts.begin() + static_cast<long>(i) + 1);
  }
  return parts[0];
}

enum class WhereShape {
  kOneColumn,       // bounds on one column plus residual conjuncts
  kTwoColumns,      // bounds on two columns: falls back
  kTopOr,           // falls back
  kTopNot,          // falls back
  kLike,            // may raise: falls back
  kArithmetic,      // may raise: falls back
  kUnknownColumn,   // raises on a non-empty table: falls back
  kNanLiteral,      // a NaN literal bounds nothing: falls back
};

ExprPtr RandomWhere(Rng* rng, WhereShape shape) {
  const size_t first = rng->NextBounded(5);
  const DedupColumn& c = kScanPool[first];
  std::vector<ExprPtr> parts;
  for (size_t k = 0, n = 1 + rng->NextBounded(3); k < n; ++k) {
    parts.push_back(BoundOn(rng, c));
  }
  switch (shape) {
    case WhereShape::kOneColumn:
      if (rng->NextBernoulli(0.3)) {
        // A single-point range (x <= c <= x) or, when the second literal is
        // smaller, an inverted one (c > x AND c < y).
        const int rank = relational::TypeRank(c.type);
        const Value x = ScanLiteral(rng, rank);
        const Value y = rng->NextBernoulli(0.5) ? x : ScanLiteral(rng, rank);
        const bool point = rng->NextBernoulli(0.5);
        using Op = Expression::Op;
        ExprPtr col = Expression::ColumnRef(c.name);
        ExprPtr lo = Expression::Literal(x), hi = Expression::Literal(y);
        parts = {Expression::Binary(point ? Op::kGe : Op::kGt, col, lo),
                 Expression::Binary(point ? Op::kLe : Op::kLt, col, hi)};
      }
      break;
    case WhereShape::kTwoColumns:
      parts.push_back(BoundOn(rng, kScanPool[(first + 1 + rng->NextBounded(4)) % 5]));
      break;
    case WhereShape::kTopOr:
      return Expression::Binary(Expression::Op::kOr, RandomAndTree(rng, parts),
                                BoundOn(rng, c));
    case WhereShape::kTopNot:
      return Expression::Not(RandomAndTree(rng, parts));
    case WhereShape::kLike:
      parts.push_back(Expression::Binary(Expression::Op::kLike,
                                         Expression::ColumnRef(AnyScanColumn(rng).name),
                                         Expression::Literal(Value::Str("19%"))));
      break;
    case WhereShape::kArithmetic:
      parts.push_back(Expression::Binary(
          Expression::Op::kGt,
          Expression::Binary(Expression::Op::kAdd,
                             Expression::ColumnRef(AnyScanColumn(rng).name),
                             Expression::Literal(Value::Int(1))),
          Expression::Literal(Value::Int(0))));
      break;
    case WhereShape::kUnknownColumn:
      parts.push_back(Expression::Binary(Expression::Op::kLt,
                                         Expression::ColumnRef("nope"),
                                         Expression::Literal(Value::Int(1))));
      break;
    case WhereShape::kNanLiteral:
      parts.assign(1, Expression::Binary(
                          kBoundOps[rng->NextBounded(5)], Expression::ColumnRef("d"),
                          Expression::Literal(
                              Value::Real(std::numeric_limits<double>::quiet_NaN()))));
      break;
  }
  for (size_t k = 0, n = rng->NextBounded(3); k < n; ++k) {
    parts.push_back(ResidualConjunct(rng));
  }
  return RandomAndTree(rng, std::move(parts));
}

/// A row, ungrouped-aggregate or grouped-aggregate statement over `t`.
relational::SelectStatement RandomScanStatement(Rng* rng, ExprPtr where) {
  using relational::AggFunc;
  using relational::SelectItem;
  relational::SelectStatement stmt;
  stmt.table = "t";
  stmt.where = std::move(where);
  const AggFunc funcs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                           AggFunc::kMin,   AggFunc::kMax, AggFunc::kStdDev};
  switch (rng->NextBounded(3)) {
    case 0:
      if (rng->NextBernoulli(0.2)) {
        stmt.items.push_back(SelectItem::Star());
      } else {
        for (size_t k = 0, n = 1 + rng->NextBounded(3); k < n; ++k) {
          stmt.items.push_back(SelectItem::Col(AnyScanColumn(rng).name));
        }
      }
      break;
    case 1:
      for (size_t k = 0, n = 1 + rng->NextBounded(3); k < n; ++k) {
        const AggFunc f = funcs[rng->NextBounded(6)];
        const bool star = f == AggFunc::kCount && rng->NextBernoulli(0.3);
        const std::string column = star ? "" : AnyScanColumn(rng).name;
        stmt.items.push_back(SelectItem::Agg(f, column, "a" + std::to_string(k)));
      }
      break;
    default: {
      const std::string g = rng->NextBernoulli(0.5) ? "b" : "s";
      stmt.group_by = {g};
      stmt.items = {SelectItem::Col(g), SelectItem::Agg(AggFunc::kCount, ""),
                    SelectItem::Agg(AggFunc::kSum, "j")};
      break;
    }
  }
  return stmt;
}

std::vector<uint32_t> MaskPositions(const std::vector<uint8_t>& mask) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

std::string ResultBytes(const Result<relational::Table>& r) {
  return r.ok() ? relational::EncodeTable(*r) : r.status().ToString();
}

class IndexScanDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// An index scan (relational::MatchIndexable + SortedIndex) selects exactly
// the rows Executor::FilterSelection selects, in both of its shapes, and
// the statement over either selection releases the same table in the same
// row order as the catalog path. Ineligible shapes must fall back.
TEST_P(IndexScanDifferentialTest, MatchesTheFullScan) {
  Rng rng(GetParam() * 15485863 + 17);
  size_t indexed = 0, empty_ranges = 0;
  for (int trial = 0; trial < 300; ++trial) {
    relational::Schema schema;
    for (const auto& c : kScanPool) schema.AddColumn({c.name, c.type});
    relational::Table t(schema);
    const bool nan = rng.NextBernoulli(0.15);
    const size_t rows = rng.NextBernoulli(0.05) ? 0 : 1 + rng.NextBounded(200);
    for (size_t r = 0; r < rows; ++r) {
      relational::Row row;
      for (const auto& c : kScanPool) row.push_back(ScanCell(&rng, c, nan));
      t.AppendRowUnchecked(row);
    }
    const auto shape = static_cast<WhereShape>(
        rng.NextBernoulli(0.6) ? 0 : 1 + rng.NextBounded(7));
    const relational::SelectStatement stmt =
        RandomScanStatement(&rng, RandomWhere(&rng, shape));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + stmt.ToSql());

    const auto plan = relational::MatchIndexable(stmt.where, t);
    EXPECT_EQ(plan.has_value(), shape == WhereShape::kOneColumn);
    if (!plan.has_value()) continue;
    const auto want_rows = relational::Executor::FilterSelection(t, *stmt.where);
    ASSERT_TRUE(want_rows.ok()) << want_rows.status().ToString();
    const auto index = relational::SortedIndex::Build(t.col(plan->column));
    if (!index.has_value()) {
      // Only a NaN leaves a column without a sort order.
      ASSERT_EQ(t.col(plan->column).type(), ColumnType::kDouble);
      const ColumnVector& col = t.col(plan->column);
      bool has_nan = false;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        has_nan |= !col.IsNull(r) && std::isnan(col.RealAt(r));
      }
      EXPECT_TRUE(has_nan);
      continue;
    }
    ++indexed;
    const auto range = index->Find(t.col(plan->column), plan->bounds);
    empty_ranges += range.size() == 0 ? 1 : 0;
    const auto by_rows = index->Select(t, range, plan->residual, Selection::Kind::kRows);
    const auto by_mask = index->Select(t, range, plan->residual, Selection::Kind::kMask);
    ASSERT_TRUE(by_rows.ok() && by_mask.ok());
    EXPECT_EQ(by_rows->rows, *want_rows);
    EXPECT_EQ(MaskPositions(by_mask->mask), *want_rows);
    EXPECT_EQ(by_mask->count, want_rows->size());

    relational::Catalog catalog;
    catalog.PutTable("t", t);
    const std::string want = ResultBytes(relational::Executor(&catalog).Execute(stmt));
    EXPECT_EQ(ResultBytes(relational::Executor::Execute(stmt, t, *by_rows)), want);
    EXPECT_EQ(ResultBytes(relational::Executor::Execute(stmt, t, *by_mask)), want);
  }
  // Most one-column shapes really took the index, some with empty ranges.
  EXPECT_GT(indexed, 120u);
  EXPECT_GT(empty_ranges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexScanDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace piye
