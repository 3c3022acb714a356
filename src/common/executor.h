#ifndef PIYE_COMMON_EXECUTOR_H_
#define PIYE_COMMON_EXECUTOR_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>  // piye-lint: allow(header-hygiene) the pool owns its worker threads
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/sync.h"

namespace piye {

/// Fixed-size thread pool used by the mediation engine to fan query
/// fragments out across autonomous remote sources.
///
/// Semantics:
///  - `Submit` enqueues a task and returns a `std::future` for its result.
///    Tasks own their captured state; a caller that stops waiting on the
///    future (e.g. a per-source deadline expired) simply abandons it — the
///    task still runs to completion on a pool thread and its state is
///    released afterwards, so nothing dangles.
///  - The destructor drains the queue and joins every worker, which is what
///    lets owners (e.g. `MediationEngine`) guarantee that no task outlives
///    the resources it references: declare the executor *after* those
///    resources so it is destroyed (joined) first.
class Executor {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit Executor(size_t num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` and returns a future for its result. `fn` must be
  /// invocable with no arguments.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Cancellation-aware variant for fire-and-observe tasks: if `token` has
  /// fired by the time a worker dequeues the task, the body is skipped
  /// entirely (the future still becomes ready) — a cancelled query's
  /// queued-but-unstarted fragments never dial their source. A task already
  /// running is not preempted; it is expected to poll the same token.
  template <typename F>
  std::future<void> Submit(const CancelToken& token, F&& fn) {
    static_assert(std::is_void_v<std::invoke_result_t<std::decay_t<F>>>,
                  "cancellable Submit requires a void() task");
    return Submit([token, fn = std::forward<F>(fn)]() mutable {
      if (token.cancelled()) return;
      fn();
    });
  }

  /// The default worker count: hardware concurrency clamped to [1, 16].
  static size_t DefaultThreadCount();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Written in the constructor, joined in the destructor; never touched by
  /// worker threads, so it needs no capability.
  std::vector<std::thread> threads_;
};

}  // namespace piye

#endif  // PIYE_COMMON_EXECUTOR_H_
