#include "perturb/additive_noise.h"

#include <cmath>

#include "common/macros.h"

namespace piye {
namespace perturb {

std::vector<double> AdditiveNoise::Perturb(const std::vector<double>& xs,
                                           Rng* rng) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    double r = 0.0;
    switch (dist_) {
      case Distribution::kGaussian:
        r = rng->NextGaussian(0.0, scale_);
        break;
      case Distribution::kUniform:
        r = rng->NextUniform(-scale_, scale_);
        break;
    }
    out.push_back(x + r);
  }
  return out;
}

Status AdditiveNoise::PerturbColumn(relational::Table* table,
                                    const std::string& column, Rng* rng) const {
  PIYE_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column));
  const relational::ColumnType type = table->schema().column(col).type;
  if (type != relational::ColumnType::kDouble &&
      type != relational::ColumnType::kInt64) {
    return Status::InvalidArgument("column '" + column + "' is not numeric");
  }
  // Tight loop over the contiguous typed buffer; one RNG draw per non-NULL
  // row, in row order (the draw sequence is part of the kernel's contract —
  // the row-engine reference replays it with a shared seed).
  const bool gaussian = dist_ == Distribution::kGaussian;
  relational::ColumnVector* mc = table->MutableColumn(col);
  const size_t n = table->num_rows();
  if (type == relational::ColumnType::kInt64) {
    int64_t* vals = mc->mutable_ints();
    for (size_t i = 0; i < n; ++i) {
      if (mc->IsNull(i)) continue;
      const double r = gaussian ? rng->NextGaussian(0.0, scale_)
                                : rng->NextUniform(-scale_, scale_);
      vals[i] = static_cast<int64_t>(
          std::llround(static_cast<double>(vals[i]) + r));
    }
  } else {
    double* vals = mc->mutable_reals();
    for (size_t i = 0; i < n; ++i) {
      if (mc->IsNull(i)) continue;
      vals[i] += gaussian ? rng->NextGaussian(0.0, scale_)
                          : rng->NextUniform(-scale_, scale_);
    }
  }
  return Status::OK();
}

double AdditiveNoise::NoiseDensity(double r) const {
  switch (dist_) {
    case Distribution::kGaussian: {
      const double z = r / scale_;
      return std::exp(-0.5 * z * z) / (scale_ * std::sqrt(2.0 * M_PI));
    }
    case Distribution::kUniform:
      return std::fabs(r) <= scale_ ? 1.0 / (2.0 * scale_) : 0.0;
  }
  return 0.0;
}

}  // namespace perturb
}  // namespace piye
