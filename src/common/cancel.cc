#include "common/cancel.h"

#include <algorithm>
#include <thread>  // std::this_thread::sleep_until

#include "common/sync.h"

namespace piye {

namespace internal {

struct CancelState {
  Mutex mu;
  CondVar cv;
  bool cancelled GUARDED_BY(mu) = false;
  Status reason GUARDED_BY(mu);
};

}  // namespace internal

bool CancelToken::cancelled() const {
  if (state_ != nullptr) {
    MutexLock lock(state_->mu);
    if (state_->cancelled) return true;
  }
  return has_deadline() && std::chrono::steady_clock::now() >= deadline_;
}

Status CancelToken::status() const {
  if (state_ != nullptr) {
    MutexLock lock(state_->mu);
    if (state_->cancelled) return state_->reason;
  }
  if (has_deadline() && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded("the query's deadline has passed");
  }
  return Status::OK();
}

CancelToken CancelToken::WithDeadline(TimePoint deadline) const {
  CancelToken out = *this;
  out.deadline_ = std::min(deadline_, deadline);
  return out;
}

bool CancelToken::SleepFor(std::chrono::microseconds duration) const {
  const auto now = std::chrono::steady_clock::now();
  // Wake at the deadline even mid-sleep: a retry backoff must not outlive
  // the query that asked for it.
  const TimePoint wake = std::min(now + duration, deadline_);
  if (state_ == nullptr) {
    if (wake > now) std::this_thread::sleep_until(wake);
    return !has_deadline() || std::chrono::steady_clock::now() < deadline_;
  }
  MutexLock lock(state_->mu);
  while (!state_->cancelled) {
    if (state_->cv.WaitUntil(lock, wake) == std::cv_status::timeout) break;
  }
  if (state_->cancelled) return false;
  return !has_deadline() || std::chrono::steady_clock::now() < deadline_;
}

CancelSource::CancelSource() : state_(std::make_shared<internal::CancelState>()) {}

CancelToken CancelSource::token() const {
  CancelToken t;
  t.state_ = state_;
  return t;
}

void CancelSource::RequestCancel(Status reason) {
  {
    MutexLock lock(state_->mu);
    if (state_->cancelled) return;
    state_->cancelled = true;
    state_->reason = std::move(reason);
  }
  state_->cv.NotifyAll();
}

bool CancelSource::cancel_requested() const {
  MutexLock lock(state_->mu);
  return state_->cancelled;
}

}  // namespace piye
