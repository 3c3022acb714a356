#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "anonymity/hierarchy.h"
#include "anonymity/kanonymity.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "relational/sql.h"
#include "relational/table_codec.h"
#include "inference/constraint.h"
#include "inference/interval_solver.h"
#include "inference/nlp_solver.h"
#include "linkage/psi.h"
#include "mediator/privacy_control.h"
#include "perturb/noise.h"
#include "perturb/reconstruction.h"
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
  options.enable_warehouse = false;
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
    auto result = system.Query(q);
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
