#ifndef PIYE_PERSIST_SNAPSHOTTER_H_
#define PIYE_PERSIST_SNAPSHOTTER_H_

#include <cstdint>
#include <functional>
// The snapshotter is the one type besides the executor that legitimately
// owns a thread; it is joined in Stop().
// piye-lint: allow(header-hygiene) snapshotter owns its worker thread
#include <thread>

#include "common/cancel.h"
#include "common/status.h"
#include "common/sync.h"

namespace piye {
namespace persist {

/// Background incremental snapshotter: one worker thread that runs the
/// engine's compact/rotate step off the query path.
///
/// Query threads call `Trigger()` when the WAL crosses the snapshot
/// threshold — it never blocks and coalesces bursts into a single rotation.
/// Tests and operators call `TriggerAndWait()`, which returns the status of
/// a rotation that *started after* the call (so the caller's writes are
/// covered by it). Triggers that arrive while a rotation runs coalesce into
/// the next one. The worker is cancellable via CancelToken: `Stop()`
/// requests cancel, wakes every wait, and joins.
///
/// The rotate callback runs with no snapshotter lock held — it is expected
/// to take the engine's persistence mutex itself, and callers of
/// Trigger/TriggerAndWait may hold that mutex without deadlock.
class Snapshotter {
 public:
  /// The compact/rotate step. A non-OK return is handed back to
  /// TriggerAndWait callers; the engine's callback latches its fail-closed
  /// state on any durability error in here.
  using RotateFn = std::function<Status()>;

  explicit Snapshotter(RotateFn rotate);
  ~Snapshotter();  ///< stops and joins the worker

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Spawns the worker. Call once.
  void Start();

  /// Requests cancel, wakes the worker and all waiters, joins. Idempotent.
  /// An in-flight rotation finishes first (rotations are never torn by
  /// Stop — only by crash injection).
  void Stop();

  /// Requests a rotation soon; coalescing, never blocks.
  void Trigger();

  /// Requests a rotation and blocks until one that started at or after this
  /// request completes; returns its status. Returns Cancelled if the
  /// snapshotter is stopped first (or was never started).
  Status TriggerAndWait();

 private:
  void Run();

  const RotateFn rotate_;
  CancelSource cancel_;

  mutable Mutex mu_;
  CondVar cv_;
  bool started_ GUARDED_BY(mu_) = false;
  bool pending_ GUARDED_BY(mu_) = false;
  uint64_t request_seq_ GUARDED_BY(mu_) = 0;
  uint64_t satisfied_seq_ GUARDED_BY(mu_) = 0;
  Status last_status_ GUARDED_BY(mu_);

  // The snapshotter owns exactly one worker, started in Start() and joined
  // in Stop() (called from the destructor).
  // piye-lint: allow(raw-thread) single worker, joined in Stop()
  std::thread thread_;
};

}  // namespace persist
}  // namespace piye

#endif  // PIYE_PERSIST_SNAPSHOTTER_H_
