#ifndef PIYE_COMMON_CANCEL_H_
#define PIYE_COMMON_CANCEL_H_

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace piye {

namespace internal {
struct CancelState;
}  // namespace internal

/// A cheap, copyable handle for cooperative cancellation, threaded from a
/// caller through `MediationEngine::Execute`, the executor's fragment tasks,
/// and `RemoteSource::ExecuteFragment`. A token carries two independent stop
/// signals:
///
///  - an explicit cancel requested through the owning `CancelSource`
///    (reported as `kCancelled`), and
///  - an absolute steady-clock deadline (reported as `kDeadlineExceeded`).
///
/// A default-constructed token never fires — APIs that take a token
/// defaulted to `CancelToken()` behave exactly as before cancellation
/// existed. Checking is polling-based (`cancelled()` / `Check()` at natural
/// pipeline boundaries) plus `SleepFor`, an interruptible sleep that a
/// `CancelSource::RequestCancel` wakes immediately — which is what lets a
/// retry backoff stop mid-sleep instead of running to completion.
class CancelToken {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// The longest timeout a caller may turn into a deadline: one day. Far
  /// larger ones overflow the nanosecond steady-clock arithmetic, so every
  /// timeout that comes from outside (a query option, a budget read off the
  /// wire) is refused or clamped to this first.
  static constexpr int64_t kMaxTimeoutMs = 24LL * 60 * 60 * 1000;

  /// Never cancelled, no deadline.
  CancelToken() = default;

  /// True once the source cancelled or the deadline passed.
  bool cancelled() const;

  /// OK while live; the cancellation reason (`kCancelled`) or
  /// `kDeadlineExceeded` once fired. `Check()` is the same thing phrased for
  /// PIYE_RETURN_NOT_OK at pipeline stage boundaries.
  Status status() const;
  Status Check() const { return status(); }

  bool has_deadline() const { return deadline_ != TimePoint::max(); }
  TimePoint deadline() const { return deadline_; }

  /// False only for a token that can never fire (default-constructed, no
  /// deadline) — waiters use this to skip cancellation polling entirely.
  bool can_fire() const { return state_ != nullptr || has_deadline(); }

  /// A token that additionally expires at `deadline` (the earlier of the two
  /// wins). Used by the engine to tighten a caller token with the per-query
  /// fan-out deadline before handing it to fragment tasks.
  CancelToken WithDeadline(TimePoint deadline) const;
  CancelToken WithTimeout(std::chrono::milliseconds timeout) const {
    return WithDeadline(std::chrono::steady_clock::now() + timeout);
  }

  /// Sleeps up to `duration`, waking early on cancellation or deadline.
  /// Returns true after an undisturbed full sleep; false when the token
  /// fired (before or during — callers bail out with `status()`).
  bool SleepFor(std::chrono::microseconds duration) const;

 private:
  friend class CancelSource;

  std::shared_ptr<internal::CancelState> state_;  ///< null ⇒ not cancellable
  TimePoint deadline_ = TimePoint::max();
};

/// The owning side: hand `token()` down the call chain, call
/// `RequestCancel` when the caller gives up. Copies of the source share the
/// same state. Thread-safe.
class CancelSource {
 public:
  CancelSource();

  CancelToken token() const;

  /// Fires the token (idempotent — the first reason wins) and wakes every
  /// SleepFor in progress.
  void RequestCancel(Status reason = Status::Cancelled("cancelled by caller"));

  bool cancel_requested() const;

 private:
  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace piye

#endif  // PIYE_COMMON_CANCEL_H_
