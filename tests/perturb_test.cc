#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "reference/rowref.h"
#include "common/stats.h"
#include "perturb/additive_noise.h"
#include "perturb/noise.h"
#include "perturb/reconstruction.h"
#include "perturb/spectral_filter.h"
#include "perturb/swapping.h"

namespace piye {
namespace perturb {
namespace {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Schema;
using relational::Table;
using relational::Value;

// --- Additive noise ---

TEST(AdditiveNoiseTest, GaussianDistortsButPreservesMean) {
  Rng rng(1);
  std::vector<double> xs(5000, 50.0);
  const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 10.0);
  const auto ys = noise.Perturb(xs, &rng);
  EXPECT_NEAR(stats::Mean(ys), 50.0, 0.5);
  EXPECT_NEAR(stats::StdDev(ys), 10.0, 0.5);
  size_t moved = 0;
  for (size_t i = 0; i < xs.size(); ++i) moved += std::fabs(ys[i] - xs[i]) > 1.0;
  EXPECT_GT(moved, 4000u);
}

TEST(AdditiveNoiseTest, UniformStaysInBand) {
  Rng rng(2);
  std::vector<double> xs(1000, 0.0);
  const AdditiveNoise noise(AdditiveNoise::Distribution::kUniform, 3.0);
  for (double y : noise.Perturb(xs, &rng)) {
    EXPECT_GE(y, -3.0);
    EXPECT_LE(y, 3.0);
  }
}

TEST(AdditiveNoiseTest, DensityIntegratesToOne) {
  for (auto dist : {AdditiveNoise::Distribution::kGaussian,
                    AdditiveNoise::Distribution::kUniform}) {
    const AdditiveNoise noise(dist, 2.0);
    double integral = 0.0;
    const double dx = 0.01;
    for (double x = -20.0; x <= 20.0; x += dx) integral += noise.NoiseDensity(x) * dx;
    EXPECT_NEAR(integral, 1.0, 0.01);
  }
}

TEST(AdditiveNoiseTest, PerturbColumnRespectsTypesAndNulls) {
  Table t(Schema{Column{"v", ColumnType::kInt64}, Column{"s", ColumnType::kString}});
  (void)t.AppendRow(Row{Value::Int(100), Value::Str("x")});
  (void)t.AppendRow(Row{Value::Null(), Value::Str("y")});
  Rng rng(3);
  const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 5.0);
  ASSERT_TRUE(noise.PerturbColumn(&t, "v", &rng).ok());
  EXPECT_TRUE(t.Cell(0, 0).is_int());
  EXPECT_TRUE(t.Cell(1, 0).is_null());
  EXPECT_FALSE(noise.PerturbColumn(&t, "s", &rng).ok());
}

TEST(OutputPerturbationTest, Rounding) {
  EXPECT_DOUBLE_EQ(OutputPerturbation::Round(83.07, 0.1), 83.1);
  EXPECT_DOUBLE_EQ(OutputPerturbation::Round(83.07, 1.0), 83.0);
  EXPECT_DOUBLE_EQ(OutputPerturbation::Round(83.07, 5.0), 85.0);
  EXPECT_DOUBLE_EQ(OutputPerturbation::Round(83.07, 0.0), 83.07);
}

// --- Agrawal–Srikant reconstruction ---

TEST(ReconstructionTest, RecoversBimodalDistribution) {
  Rng rng(7);
  std::vector<double> original;
  for (int i = 0; i < 1500; ++i) original.push_back(rng.NextGaussian(20.0, 3.0));
  for (int i = 0; i < 1500; ++i) original.push_back(rng.NextGaussian(80.0, 3.0));
  const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 20.0);
  const auto perturbed = noise.Perturb(original, &rng);

  DistributionReconstructor recon(0.0, 100.0, 20);
  const auto truth = recon.Bucketize(original);
  const auto naive = recon.Bucketize(perturbed);
  auto recovered = recon.Reconstruct(perturbed, noise);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const double err_naive = DistributionReconstructor::L1Distance(truth, naive);
  const double err_recon = DistributionReconstructor::L1Distance(truth, *recovered);
  // Iterated Bayes recovers the shape far better than reading the perturbed
  // histogram directly (the Agrawal–Srikant result).
  EXPECT_LT(err_recon, 0.5 * err_naive);
}

TEST(ReconstructionTest, ProbabilitiesSumToOne) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.NextUniform(0.0, 100.0));
  const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 10.0);
  const auto perturbed = noise.Perturb(xs, &rng);
  DistributionReconstructor recon(0.0, 100.0, 10);
  auto f = recon.Reconstruct(perturbed, noise);
  ASSERT_TRUE(f.ok());
  double total = 0.0;
  for (double p : *f) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ReconstructionTest, RejectsBadInputs) {
  const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 1.0);
  EXPECT_FALSE(DistributionReconstructor(0, 100, 0).Reconstruct({1.0}, noise).ok());
  EXPECT_FALSE(DistributionReconstructor(0, 100, 10).Reconstruct({}, noise).ok());
}

// --- Swapping / microaggregation ---

TEST(RankSwapperTest, PreservesMultiset) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.NextUniform(0, 1000));
  const RankSwapper swapper(10.0);
  auto ys = swapper.Swap(xs, &rng);
  auto sorted_x = xs, sorted_y = ys;
  std::sort(sorted_x.begin(), sorted_x.end());
  std::sort(sorted_y.begin(), sorted_y.end());
  EXPECT_EQ(sorted_x, sorted_y);
  size_t moved = 0;
  for (size_t i = 0; i < xs.size(); ++i) moved += xs[i] != ys[i];
  EXPECT_GT(moved, 50u);
}

TEST(RankSwapperTest, SmallWindowPreservesCorrelationBetter) {
  Rng rng(23);
  std::vector<double> key, val;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextUniform(0, 100);
    key.push_back(x);
    val.push_back(2 * x + rng.NextGaussian(0, 5));
  }
  Rng rng_small(1), rng_large(1);
  const auto swapped_small = RankSwapper(2.0).Swap(val, &rng_small);
  const auto swapped_large = RankSwapper(50.0).Swap(val, &rng_large);
  const double corr_small = stats::Correlation(key, swapped_small);
  const double corr_large = stats::Correlation(key, swapped_large);
  EXPECT_GT(corr_small, corr_large);
  EXPECT_GT(corr_small, 0.9);
}

TEST(MicroaggregatorTest, EveryValueSharedByK) {
  std::vector<double> xs{1, 2, 3, 10, 11, 12, 20, 21, 22, 23};
  const Microaggregator agg(3);
  const auto ys = agg.Aggregate(xs);
  std::map<double, int> counts;
  for (double y : ys) ++counts[y];
  for (const auto& [v, n] : counts) {
    EXPECT_GE(n, 3) << v;
  }
  double sx = 0, sy = 0;
  for (double x : xs) sx += x;
  for (double y : ys) sy += y;
  EXPECT_NEAR(sx, sy, 1e-9);
}

TEST(MicroaggregatorTest, LargerKLosesMoreInformation) {
  Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.NextUniform(0, 100));
  const double sse3 =
      Microaggregator::SumOfSquaredErrors(xs, Microaggregator(3).Aggregate(xs));
  const double sse20 =
      Microaggregator::SumOfSquaredErrors(xs, Microaggregator(20).Aggregate(xs));
  EXPECT_LT(sse3, sse20);
}

// --- Spectral filtering: the paper's "perturbation is not foolproof" ---

TEST(JacobiEigenTest, DiagonalizesKnownMatrix) {
  auto eig = JacobiEigen({{2, 1}, {1, 2}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-9);
  EXPECT_NEAR(std::fabs(eig->eigenvectors[0][0]), std::sqrt(0.5), 1e-9);
}

TEST(JacobiEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(JacobiEigen({{1, 2, 3}, {4, 5, 6}}).ok());
}

TEST(SpectralFilterTest, RecoversCorrelatedDataBelowNoiseFloor) {
  Rng rng(31);
  const size_t n = 800, d = 6;
  std::vector<std::vector<double>> original(n, std::vector<double>(d));
  for (size_t r = 0; r < n; ++r) {
    const double latent = rng.NextUniform(0, 100);
    for (size_t j = 0; j < d; ++j) {
      original[r][j] = latent * (1.0 + 0.1 * static_cast<double>(j)) +
                       rng.NextGaussian(0, 2.0);
    }
  }
  const double sigma = 15.0;
  auto perturbed = original;
  for (auto& row : perturbed) {
    for (auto& x : row) x += rng.NextGaussian(0, sigma);
  }
  const SpectralFilter filter(sigma * sigma);
  auto recovered = filter.Filter(perturbed);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const double err_perturbed = SpectralFilter::MatrixRmse(original, perturbed);
  const double err_recovered = SpectralFilter::MatrixRmse(original, *recovered);
  EXPECT_NEAR(err_perturbed, sigma, 2.0);
  // The filtering attack strips most of the noise.
  EXPECT_LT(err_recovered, 0.55 * sigma);
}

// --- columnar kernels vs row-at-a-time references (NULL alignment) ---

namespace {

/// 2 columns, NULLs interleaved through the numeric one: the exact shape
/// that misaligns a dense-vector write-back lacking a row<->value index map.
Table InterleavedNullFixture(ColumnType numeric_type) {
  Table t(Schema{Column{"v", numeric_type}, Column{"tag", ColumnType::kString}});
  Rng rng(41);
  for (int i = 0; i < 257; ++i) {
    Value v;
    if (i % 3 == 1 || i % 7 == 2) {
      v = Value::Null();
    } else if (numeric_type == ColumnType::kInt64) {
      v = Value::Int(static_cast<int64_t>(rng.NextBounded(1000)) - 500);
    } else {
      v = Value::Real(rng.NextUniform(-100.0, 100.0));
    }
    (void)t.AppendRow(Row{std::move(v), Value::Str("r" + std::to_string(i))});
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.Cell(r, c).ToString(), b.Cell(r, c).ToString())
          << "cell (" << r << "," << c << ")";
    }
  }
}

}  // namespace

TEST(RankSwapperTest, InterleavedNullsStayAlignedAgainstRowReference) {
  for (ColumnType type : {ColumnType::kInt64, ColumnType::kDouble}) {
    Table columnar = InterleavedNullFixture(type);
    Table reference = columnar;
    const uint64_t seed = 0xDECADE;
    Rng rng_columnar(seed), rng_reference(seed);
    const RankSwapper swapper(10.0);
    ASSERT_TRUE(swapper.SwapColumn(&columnar, "v", &rng_columnar).ok());
    ASSERT_TRUE(relational::rowref::RankSwapRowAtATime(&reference, "v", 10.0,
                                                       &rng_reference)
                    .ok());
    // Same seed, same draws, same placement — including every NULL slot.
    ExpectTablesEqual(columnar, reference);
    // And the swap is a permutation: NULL rows keep NULL, the non-NULL
    // multiset is preserved.
    const Table original = InterleavedNullFixture(type);
    std::multiset<std::string> before, after;
    for (size_t r = 0; r < original.num_rows(); ++r) {
      ASSERT_EQ(original.Cell(r, 0).is_null(), columnar.Cell(r, 0).is_null())
          << "row " << r;
      if (!original.Cell(r, 0).is_null()) {
        before.insert(original.Cell(r, 0).ToString());
        after.insert(columnar.Cell(r, 0).ToString());
      }
    }
    EXPECT_EQ(before, after);
  }
}

TEST(AdditiveNoiseTest, InterleavedNullsMatchRowReference) {
  for (ColumnType type : {ColumnType::kInt64, ColumnType::kDouble}) {
    Table columnar = InterleavedNullFixture(type);
    Table reference = columnar;
    const uint64_t seed = 0xFACADE;
    Rng rng_columnar(seed), rng_reference(seed);
    const AdditiveNoise noise(AdditiveNoise::Distribution::kGaussian, 5.0);
    ASSERT_TRUE(noise.PerturbColumn(&columnar, "v", &rng_columnar).ok());
    ASSERT_TRUE(relational::rowref::AddNoiseRowAtATime(
                    &reference, "v", /*gaussian=*/true, 5.0, &rng_reference)
                    .ok());
    ExpectTablesEqual(columnar, reference);
  }
}

}  // namespace
}  // namespace perturb
}  // namespace piye
