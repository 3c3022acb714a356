#include "persist/snapshotter.h"

#include <utility>

namespace piye {
namespace persist {

Snapshotter::Snapshotter(RotateFn rotate) : rotate_(std::move(rotate)) {}

Snapshotter::~Snapshotter() { Stop(); }

void Snapshotter::Start() {
  MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  // piye-lint: allow(raw-thread) see the member declaration: joined in Stop.
  thread_ = std::thread([this] { Run(); });
}

void Snapshotter::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    cancel_.RequestCancel(Status::Cancelled("snapshotter stopped"));
    cv_.NotifyAll();
  }
  thread_.join();
  MutexLock lock(mu_);
  started_ = false;
  // Wake TriggerAndWait callers so they observe the cancel instead of
  // waiting for a rotation that will never run.
  cv_.NotifyAll();
}

void Snapshotter::Trigger() {
  MutexLock lock(mu_);
  ++request_seq_;
  pending_ = true;
  cv_.NotifyAll();
}

Status Snapshotter::TriggerAndWait() {
  MutexLock lock(mu_);
  if (!started_ || cancel_.cancel_requested()) {
    return Status::Cancelled("snapshotter is not running");
  }
  const uint64_t my_req = ++request_seq_;
  pending_ = true;
  cv_.NotifyAll();
  while (satisfied_seq_ < my_req && !cancel_.cancel_requested()) {
    cv_.Wait(lock);
  }
  if (satisfied_seq_ < my_req) {
    return Status::Cancelled("snapshotter stopped before the rotation ran");
  }
  return last_status_;
}

void Snapshotter::Run() {
  const CancelToken cancel = cancel_.token();
  for (;;) {
    uint64_t batch = 0;
    {
      MutexLock lock(mu_);
      while (!cancel.cancelled() && !pending_) cv_.Wait(lock);
      if (cancel.cancelled()) return;
      pending_ = false;
      batch = request_seq_;
    }

    // Outside the lock: the callback takes the engine's persistence mutex,
    // and query threads holding it must be able to Trigger without blocking.
    Status status = rotate_();

    MutexLock lock(mu_);
    last_status_ = std::move(status);
    if (batch > satisfied_seq_) satisfied_seq_ = batch;
    cv_.NotifyAll();
  }
}

}  // namespace persist
}  // namespace piye
