#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/macros.h"
#include "common/modmath.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace piye {
namespace {

// --- Status / Result ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  const Status s = Status::PrivacyViolation("leak");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsPrivacyViolation());
  EXPECT_EQ(s.code(), StatusCode::kPrivacyViolation);
  EXPECT_EQ(s.message(), "leak");
  EXPECT_EQ(s.ToString(), "PrivacyViolation: leak");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PIYE_ASSIGN_OR_RETURN(int h, Half(x));
  PIYE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

// --- Rng ---

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(13), 13u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.NextGaussian());
  EXPECT_NEAR(stats::Mean(xs), 0.0, 0.05);
  EXPECT_NEAR(stats::StdDev(xs), 1.0, 0.05);
}

TEST(RngTest, LaplaceSymmetricZeroMean) {
  Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.NextLaplace(2.0));
  EXPECT_NEAR(stats::Mean(xs), 0.0, 0.1);
  // Var of Laplace(b) is 2 b^2 = 8.
  EXPECT_NEAR(stats::Variance(xs), 8.0, 0.8);
}

TEST(RngTest, PoissonMean) {
  Rng rng(42);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.NextPoisson(3.0);
  EXPECT_NEAR(total / n, 3.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --- stats ---

TEST(StatsTest, MeanVarStd) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stats::Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stats::StdDev(xs), 2.0);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(stats::Mean({}), 0.0);
  EXPECT_EQ(stats::Variance({}), 0.0);
}

TEST(StatsTest, CorrelationSigns) {
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_NEAR(stats::Correlation(x, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(stats::Correlation(x, {8, 6, 4, 2}), -1.0, 1e-12);
}

// --- strings ---

TEST(StringsTest, TrimAndLower) {
  EXPECT_EQ(strings::Trim("  aBc \n"), "aBc");
  EXPECT_EQ(strings::ToLower("aBc"), "abc");
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(strings::EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(strings::EditDistance("", "abc"), 3u);
  EXPECT_EQ(strings::EditDistance("same", "same"), 0u);
  EXPECT_DOUBLE_EQ(strings::EditSimilarity("same", "same"), 1.0);
}

TEST(StringsTest, TokenizeIdentifier) {
  const auto t1 = strings::TokenizeIdentifier("dateOfBirth");
  ASSERT_EQ(t1.size(), 3u);
  EXPECT_EQ(t1[0], "date");
  EXPECT_EQ(t1[1], "of");
  EXPECT_EQ(t1[2], "birth");
  const auto t2 = strings::TokenizeIdentifier("date_of_birth");
  EXPECT_EQ(t1, t2);
  const auto t3 = strings::TokenizeIdentifier("date-of-birth");
  EXPECT_EQ(t1, t3);
}

TEST(StringsTest, Format) {
  EXPECT_EQ(strings::Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strings::Format("%.2f", 1.005), "1.00");
}

// --- sha256 ---

TEST(Sha256Test, KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.Update("hello ");
  h.Update("world");
  EXPECT_EQ(Sha256::ToHex(h.Finish()), Sha256::ToHex(Sha256::Hash("hello world")));
}

TEST(Sha256Test, LongInput) {
  const std::string big(100000, 'a');
  // Cross-checked with Python hashlib.
  EXPECT_EQ(Sha256::ToHex(Sha256::Hash(big)),
            "6d1cf22d7cc09b085dfc25ee1a1f3ae0265804c607bc2074ad253bcc82fd81ee");
}

TEST(Sha256Test, Hash64Distinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(Sha256::Hash64("item" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

// --- modmath ---

TEST(ModMathTest, SafePrimeCertificate) {
  EXPECT_TRUE(modmath::IsPrime(modmath::kSafePrime));
  EXPECT_TRUE(modmath::IsPrime(modmath::kSubgroupOrder));
  EXPECT_EQ(modmath::kSafePrime, 2 * modmath::kSubgroupOrder + 1);
}

TEST(ModMathTest, GeneratorHasSubgroupOrder) {
  // g^q = 1 and g != 1.
  EXPECT_EQ(modmath::PowMod(modmath::kSubgroupGenerator, modmath::kSubgroupOrder,
                            modmath::kSafePrime),
            1u);
  EXPECT_NE(modmath::kSubgroupGenerator, 1u);
}

TEST(ModMathTest, PowModBasics) {
  EXPECT_EQ(modmath::PowMod(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(modmath::PowMod(5, 0, 13), 1u);
}

TEST(ModMathTest, InverseIsInverse) {
  const uint64_t p = modmath::kSafePrime;
  for (uint64_t a : {3ULL, 12345ULL, 999999937ULL}) {
    const uint64_t inv = modmath::InvMod(a, p);
    EXPECT_EQ(modmath::MulMod(a, inv, p), 1u);
  }
}

TEST(ModMathTest, IsPrimeSmallCases) {
  EXPECT_FALSE(modmath::IsPrime(0));
  EXPECT_FALSE(modmath::IsPrime(1));
  EXPECT_TRUE(modmath::IsPrime(2));
  EXPECT_TRUE(modmath::IsPrime(97));
  EXPECT_FALSE(modmath::IsPrime(91));  // 7*13
  EXPECT_FALSE(modmath::IsPrime(3215031751ULL));  // strong pseudoprime to 2,3,5,7
}

TEST(ModMathTest, HashToGroupLandsInSubgroup) {
  for (int i = 0; i < 50; ++i) {
    const std::string s = "k" + std::to_string(i);
    const uint64_t g = modmath::HashToGroup(s.data(), s.size());
    EXPECT_EQ(modmath::PowMod(g, modmath::kSubgroupOrder, modmath::kSafePrime), 1u)
        << s;
  }
}

}  // namespace
}  // namespace piye

namespace piye {
namespace {

// --- Logger ---

TEST(LoggerTest, LevelThresholdFilters) {
  const LogLevel original = Logger::level();
  Logger::SetLevel(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  // Messages below the threshold are dropped (no crash, no output assertion
  // possible on stderr here — this exercises the filtering branch).
  Logger::Debug("test", "dropped");
  Logger::Info("test", "dropped");
  Logger::Warn("test", "dropped");
  Logger::SetLevel(original);
}

}  // namespace
}  // namespace piye
