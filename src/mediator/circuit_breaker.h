#ifndef PIYE_MEDIATOR_CIRCUIT_BREAKER_H_
#define PIYE_MEDIATOR_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/sync.h"
#include "common/trace.h"

namespace piye {
namespace mediator {

/// Tuning for the per-source circuit breakers (MediationEngine::Options).
struct CircuitBreakerConfig {
  /// Consecutive transport failures (kUnavailable after retries, or a
  /// blown per-source deadline) that open the breaker. Privacy refusals are
  /// verdicts, not failures — they never trip it.
  uint32_t failure_threshold = 5;
  /// How long an open breaker sheds load before letting a probe through.
  /// One successful probe closes the breaker again; a failed one reopens it.
  uint64_t open_cooldown_ms = 100;
};

/// Per-source circuit breaker, layered over the engine's retry path: where
/// retry absorbs a *transient* fault inside one query, the breaker protects
/// queries from a *persistently* failing source. A flapping source would
/// otherwise burn its retry/backoff and deadline budget on every single
/// query; once the breaker opens, the source is shed instantly (it lands in
/// `sources_skipped` without being dialed) until a cooldown passes, then a
/// half-open probe decides whether it has recovered.
///
/// Thread-safe: fragments for the same source may run concurrently, and
/// pool tasks report outcomes after the waiting query has moved on.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  static const char* StateName(State s);

  /// `metrics` (optional) receives engine.breaker_* counters through cells
  /// registered here.
  CircuitBreaker(CircuitBreakerConfig config, trace::MetricsRegistry* metrics);

  /// Admission decision for one fragment. Closed ⇒ true. Open ⇒ false until
  /// the cooldown elapses, at which point the breaker half-opens and admits
  /// a single probe. Half-open ⇒ that probe is in flight; everyone else is
  /// shed until it reports.
  bool Admit(std::chrono::steady_clock::time_point now);

  /// The admitted fragment's final outcome. Transport failures
  /// (unavailable / deadline) count toward opening; a success resets the
  /// failure run and, in half-open, closes the breaker.
  void OnSuccess();
  void OnFailure(std::chrono::steady_clock::time_point now);

  State state() const;
  uint32_t consecutive_failures() const;
  uint64_t shed_total() const;
  uint64_t opened_total() const;

 private:
  void OpenLocked(std::chrono::steady_clock::time_point now) REQUIRES(mu_);

  CircuitBreakerConfig config_;
  /// Registry cells (null without a registry).
  trace::MetricsRegistry::Counter* c_opened_ = nullptr;
  trace::MetricsRegistry::Counter* c_shed_ = nullptr;
  trace::MetricsRegistry::Counter* c_half_open_probes_ = nullptr;
  trace::MetricsRegistry::Counter* c_closed_ = nullptr;
  mutable Mutex mu_;
  State state_ GUARDED_BY(mu_) = State::kClosed;
  uint32_t consecutive_failures_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point open_until_ GUARDED_BY(mu_){};
  uint64_t shed_total_ GUARDED_BY(mu_) = 0;
  uint64_t opened_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_CIRCUIT_BREAKER_H_
