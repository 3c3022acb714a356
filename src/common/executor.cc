#include "common/executor.h"

#include <algorithm>

namespace piye {

Executor::Executor(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void Executor::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void Executor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      // Drain the queue even when stopping: destructor-submitted joins rely
      // on every accepted task eventually running.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t Executor::DefaultThreadCount() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 4 : hw, 1, 16);
}

}  // namespace piye
