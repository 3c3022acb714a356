#include "reference/faulty_source.h"

#include <chrono>

#include "common/macros.h"
#include "common/rng.h"

namespace piye {
namespace source {
namespace faultref {

FaultySource::FaultySource(const FederatedSource* inner, Plan plan)
    : inner_(inner), plan_(plan) {}

void FaultySource::set_plan(const Plan& plan) {
  MutexLock lock(mu_);
  plan_ = plan;
}

Result<FederatedSource::FragmentResult> FaultySource::ExecuteFragment(
    const PiqlQuery& fragment, const CancelToken& cancel) const {
  PIYE_RETURN_NOT_OK(cancel.Check());
  Plan plan;
  {
    MutexLock lock(mu_);
    plan = plan_;
  }
  if (plan.latency_micros > 0 || plan.error_rate > 0.0 || plan.drop_rate > 0.0) {
    if (plan.latency_micros > 0 &&
        !cancel.SleepFor(std::chrono::microseconds(plan.latency_micros))) {
      return cancel.status();
    }
    const uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed);
    Rng rng(plan.seed ^ (call * 0x9E3779B97F4A7C15ULL) ^ 0xD1B54A32D192ED03ULL);
    if (rng.NextBernoulli(plan.drop_rate)) {
      if (!cancel.SleepFor(std::chrono::microseconds(plan.hang_micros))) {
        return cancel.status();
      }
      return Status::Unavailable("injected drop: source '" + owner() +
                                 "' hung past its deadline");
    }
    if (rng.NextBernoulli(plan.error_rate)) {
      return Status::Unavailable("injected fault: source '" + owner() +
                                 "' failed transiently");
    }
  }
  return inner_->ExecuteFragment(fragment, cancel);
}

}  // namespace faultref
}  // namespace source
}  // namespace piye
