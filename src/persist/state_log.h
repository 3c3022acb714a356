#ifndef PIYE_PERSIST_STATE_LOG_H_
#define PIYE_PERSIST_STATE_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "persist/floor_index.h"
#include "persist/wal.h"

namespace piye {
namespace persist {

/// Crash-injection points inside `StateLog::Rotate` — one per step of the
/// compact/rotate sequence, so tests can prove that a kill at *any* instant
/// of a compaction recovers to the exact pre-compaction refusal decisions.
/// When an armed point is reached the StateLog "dies" (every subsequent
/// operation fails, simulating the process being gone) and `Rotate` returns
/// Unavailable — which the engine latches into its fail-closed refuse-all
/// state exactly like a WAL append failure.
enum class RotateKillPoint {
  kNone = 0,
  kBeforeFloors,         ///< nothing of the new generation exists yet
  kAfterFloors,          ///< floors-<g+1> renamed durable; no snapshot yet
  kAfterSnapshotTmp,     ///< snapshot tmp written + fsynced, not renamed
  kAfterSnapshotRename,  ///< generation <g+1> committed; its WAL missing
  kAfterNewWal,          ///< new WAL exists; old generations not yet GC'd
};

const char* RotateKillPointName(RotateKillPoint kp);

/// Durable state directory: one snapshot + one WAL + one floor index per
/// generation.
///
///   <dir>/snapshot-<g>   full-state blob (atomic tmp+rename, CRC-checked)
///   <dir>/wal-<g>        records appended since snapshot g
///   <dir>/floors-<g>     durable per-requester budget floors (see
///                        FloorIndex) — the spill target for cold requesters
///
/// Recovery picks the highest generation with a *valid* snapshot and floor
/// index (either being corrupt falls back to the previous generation —
/// conservative, never a crash), loads them, and replays only that
/// generation's WAL; `Rotate` folds the dirty floors into the next floor
/// index, writes the next snapshot, starts a fresh WAL, and
/// garbage-collects everything older. Rotation order is what makes every
/// crash window safe: the floor index is made durable *before* the snapshot
/// rename commits the new generation, so generation g+1 can never be chosen
/// without the floors its snapshot's spilled requesters depend on.
///   - crash before the floors or snapshot rename: orphan tmp/floors files
///     of g+1 are ignored and GC'd; recovery anchors on g, whose WAL still
///     holds every record the compaction would have dropped;
///   - crash after the snapshot rename, before the new WAL exists: g+1
///     recovers from its snapshot + floors plus an empty WAL;
///   - crash before old generations are deleted: reopen prefers the newest
///     valid generation and deletes the rest.
class StateLog {
 public:
  struct RecoveredState {
    std::string snapshot;  ///< empty when the generation has no snapshot
    std::vector<WalRecord> records;
    std::shared_ptr<const FloorIndex> floors;  ///< never null after Open
    bool wal_clean = true;
    std::string tail_detail;
    uint64_t generation = 0;
  };

  /// Opens (creating if needed) the directory, recovers the newest valid
  /// generation into `*recovered`, and leaves the WAL open for appending —
  /// truncated back past any torn tail.
  static Result<std::unique_ptr<StateLog>> Open(const std::string& dir,
                                                RecoveredState* recovered);

  /// Buffers one record in the current generation's WAL.
  Status Append(uint16_t type, std::string_view payload) {
    if (dead_) return Status::Unavailable("state log crashed (injected kill)");
    return wal_->Append(type, payload);
  }

  /// Makes everything appended so far durable.
  Status Sync() {
    if (dead_) return Status::Unavailable("state log crashed (injected kill)");
    return wal_->Sync();
  }

  /// Compacts: folds `dirty_floors` into the next generation's floor index,
  /// writes `snapshot_blob` as the next snapshot, and starts its fresh WAL;
  /// older generations — including every WAL record now folded into the
  /// snapshot and floors — are deleted (best-effort). Call sites outside the
  /// engine's background snapshotter path are flagged by piye_lint
  /// (manual-snapshot).
  Status Rotate(std::string_view snapshot_blob,
                const std::map<std::string, double>& dirty_floors = {});

  /// The floor index of the current generation (never null; empty at gen 0).
  std::shared_ptr<const FloorIndex> floors() const { return floors_; }

  /// The live WAL writer — exposed so the crash-injection harness can arm
  /// kill-points on it.
  WalWriter* wal() { return wal_.get(); }
  const WalWriter* wal() const { return wal_.get(); }

  /// Arms a one-shot crash inside the next `Rotate` call.
  void ArmRotateKillPoint(RotateKillPoint kp) { rotate_kill_ = kp; }

  /// True once an injected rotate kill has fired; every operation fails.
  bool crashed() const { return dead_; }

  uint64_t generation() const { return gen_; }
  const std::string& dir() const { return dir_; }

 private:
  StateLog(std::string dir, uint64_t gen, std::unique_ptr<WalWriter> wal,
           std::shared_ptr<const FloorIndex> floors)
      : dir_(std::move(dir)),
        gen_(gen),
        wal_(std::move(wal)),
        floors_(std::move(floors)) {}

  Status MaybeKill(RotateKillPoint kp);

  std::string dir_;
  uint64_t gen_;
  std::unique_ptr<WalWriter> wal_;
  std::shared_ptr<const FloorIndex> floors_;
  RotateKillPoint rotate_kill_ = RotateKillPoint::kNone;
  bool dead_ = false;
};

}  // namespace persist
}  // namespace piye

#endif  // PIYE_PERSIST_STATE_LOG_H_
