#include "mediator/circuit_breaker.h"

namespace piye {
namespace mediator {

const char* CircuitBreaker::StateName(State s) {
  switch (s) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config,
                               trace::MetricsRegistry* metrics)
    : config_(config) {
  if (metrics == nullptr) return;
  c_opened_ = metrics->RegisterCounter("engine.breaker_opened");
  c_shed_ = metrics->RegisterCounter("engine.breaker_shed");
  c_half_open_probes_ = metrics->RegisterCounter("engine.breaker_half_open_probes");
  c_closed_ = metrics->RegisterCounter("engine.breaker_closed");
}

void CircuitBreaker::OpenLocked(std::chrono::steady_clock::time_point now) {
  state_ = State::kOpen;
  open_until_ = now + std::chrono::milliseconds(config_.open_cooldown_ms);
  ++opened_total_;
  trace::Bump(c_opened_);
}

bool CircuitBreaker::Admit(std::chrono::steady_clock::time_point now) {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now >= open_until_) {
        state_ = State::kHalfOpen;
        trace::Bump(c_half_open_probes_);
        return true;
      }
      [[fallthrough]];
    case State::kHalfOpen:
      ++shed_total_;
      trace::Bump(c_shed_);
      return false;
  }
  return true;
}

void CircuitBreaker::OnSuccess() {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    trace::Bump(c_closed_);
  }
}

void CircuitBreaker::OnFailure(std::chrono::steady_clock::time_point now) {
  MutexLock lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: the source is still sick; go straight back to open.
    OpenLocked(now);
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= config_.failure_threshold) {
    OpenLocked(now);
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

uint32_t CircuitBreaker::consecutive_failures() const {
  MutexLock lock(mu_);
  return consecutive_failures_;
}

uint64_t CircuitBreaker::shed_total() const {
  MutexLock lock(mu_);
  return shed_total_;
}

uint64_t CircuitBreaker::opened_total() const {
  MutexLock lock(mu_);
  return opened_total_;
}

}  // namespace mediator
}  // namespace piye
